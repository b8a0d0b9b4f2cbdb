// The benchmark's workloads: the paper's protocols, rebuilt from the
// library's public functions and cut into repeatable units (a table row, a
// multistart call, one TSP plus one partition instance).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "probe.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace mcopt::benchmark {

/// What one run accumulates.  Solve latencies may arrive from the
/// multistart pool threads; everything else is driver-thread only.
class Context {
 public:
  Context(std::uint64_t seed, Probe& probe, std::string scratch_dir);

  const std::uint64_t seed;
  Probe& probe;
  /// Directory for files a workload writes (the observed trace).
  const std::string scratch;
  /// Library ticks charged by the work the benchmark counted so far.
  std::uint64_t ticks = 0;

  /// A fresh solve id (1-based).
  [[nodiscard]] std::uint64_t next_solve() EXCLUDES(mu_);
  /// Records one solve, a runner or heuristic call including the
  /// construction of its problem: its time and the ticks it charged.
  void record_solve(std::uint64_t ns, std::uint64_t solve_ticks)
      EXCLUDES(mu_);
  /// Each recorded solve's time per tick, in ns, in recording order.
  [[nodiscard]] std::vector<double> solve_ns_per_tick() const EXCLUDES(mu_);
  [[nodiscard]] std::size_t solve_count() const EXCLUDES(mu_);

  /// Counts one correctness check and keeps the description of a failure.
  void check(bool ok, const char* what);
  [[nodiscard]] std::uint64_t checks() const noexcept { return checks_; }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  std::uint64_t checks_ = 0;
  std::vector<std::string> failures_;
  mutable util::Mutex mu_;
  std::uint64_t solves_ GUARDED_BY(mu_) = 0;
  std::vector<double> solve_ns_per_tick_ GUARDED_BY(mu_);
};

struct UnitResult {
  std::string id;      ///< stable across seeds, e.g. "t41/g = 1"
  std::string digest;  ///< the unit's results, printed exactly
};

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds every input from ctx.seed, replacing the previous inputs, and
  /// returns a digest of them.  Runs several times per process so set-up
  /// time can be reported as a median.
  virtual std::string setup(Context& ctx) = 0;
  [[nodiscard]] virtual std::size_t num_units() const = 0;
  /// Runs protocol unit `index` (< num_units()).  Pure in (seed, index).
  virtual UnitResult run_unit(std::size_t index, Context& ctx) = 0;
};

/// paper_tables, fig2_long, multistart_t4, substrates or table41_observed;
/// null for any other name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace mcopt::benchmark
