// Shared harness of the bench drivers: bench::Driver, their one entry
// point, and the paper's instance sets, starts, tuning pass and budgets.
//
// Time -> work calibration.  The paper ran on a VAX 11/780 and gave every
// method 6/9/12 seconds (Tables 4.1, 4.2(a), (c), (d)) or 3 minutes
// (Table 4.2(b)) per instance.  We replace wall-clock with deterministic
// tick budgets (one tick per proposal / descent evaluation).  The mapping
// 6 s ~= 600 ticks was calibrated empirically so the reproduction sits in
// the same regime as the paper's Table 4.1: the Goto construction ties the
// best Monte Carlo methods at the 6 s budget, every method is still
// climbing from 6 s to 12 s, and full convergence (where all g classes
// collapse to the same number) is several budgets away.  Table 4.2(b)'s
// 3 minutes maps to 30x the 6 s budget, by then deep in the converged
// regime — which is the paper's own observation there ("the performance of
// all 13 classes is about the same").  Set MCOPT_BENCH_SCALE to scale all
// budgets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/gfunction.hpp"
#include "core/result.hpp"
#include "core/tuner.hpp"
#include "linarr/problem.hpp"
#include "netlist/netlist.hpp"
#include "obs/heartbeat.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace mcopt::bench {

/// Master seed for every bench; printed in the headers so EXPERIMENTS.md
/// numbers are attributable.
inline constexpr std::uint64_t kSeed = 1985;

/// Tick equivalents of the paper's budgets (before MCOPT_BENCH_SCALE).
inline constexpr std::uint64_t kSixSec = 600;
inline constexpr std::uint64_t kNineSec = 900;
inline constexpr std::uint64_t kTwelveSec = 1'200;
inline constexpr std::uint64_t kThreeMin = 18'000;
/// Tuning budget per (candidate, instance): the paper used about a 5 s run.
inline constexpr std::uint64_t kTuneBudget = 500;

/// MCOPT_BENCH_SCALE (a finite number >= 0.01, read with util::parse_real);
/// 1.0 when unset or empty.  Any other value prints an error naming the
/// variable and exits 2.
double bench_scale();

/// Budget scaled by bench_scale(), minimum 1 tick.  Exits 2, like a bad
/// MCOPT_BENCH_SCALE, when the scaled budget does not fit in 64 bits.
std::uint64_t scaled(std::uint64_t budget);

/// The 30-instance GOLA / NOLA test sets of §4.2.1 / §4.3.1.
std::vector<netlist::Netlist> gola_instances();
std::vector<netlist::Netlist> nola_instances();

/// Deterministic per-instance random starting arrangement — identical for
/// every method, as §4.2.1 prescribes.
linarr::Arrangement random_start(std::size_t instance, std::size_t n);

/// A configured Monte Carlo row of a table.
struct Method {
  std::string name;       ///< paper row label
  core::GClass cls;
  double scale = 1.0;     ///< tuned Y scale (Y1; k=6 schedules decay x0.9)
};

enum class StartKind { kRandom, kGoto };

/// Runs the §4.2.1 tuning pass for each class on all 30 GOLA instances
/// (as the paper did) from `start` starts and returns the configured
/// methods.  The start kind sets
/// the tuner's typical cost and delta: 80 / 2.0 from random starts, 65 /
/// 1.5 from Goto's near-optimal ones.  Scale-free classes pass through
/// untuned.  Deterministic, and each class is tuned independently of the
/// others in `classes`.
std::vector<Method> tune_methods(const std::vector<core::GClass>& classes,
                                 StartKind start);

/// Instantiates a method's g for a given instance (Cohoon-Sahni needs the
/// instance's net count).
std::unique_ptr<core::GFunction> make_method_g(const Method& method,
                                               const netlist::Netlist& nl);

struct TableRunConfig {
  std::vector<std::uint64_t> budgets;  ///< already scaled
  StartKind start = StartKind::kRandom;
  bool figure2 = false;
  linarr::MoveKind move_kind = linarr::MoveKind::kPairwiseInterchange;
  std::uint64_t move_seed = 7;  ///< stream id for the perturbation RNG
};

/// The shared flags of every bench driver (see Driver), as Driver::parse
/// reads them.  Empty paths and zero numbers mean "off".
struct DriverOptions {
  unsigned threads = 1;
  std::uint64_t trace_sample = 1;
  std::string trace_path;     ///< --trace
  std::string metrics_path;   ///< --metrics-out (--metrics alias)
  std::string profile_path;   ///< --profile-out
  std::string prom_path;      ///< --prom-out
  double progress_interval = 0.0;            ///< --progress
  std::size_t flight_capacity = 0;           ///< --flight-recorder
  std::string flight_path = "flight.jsonl";  ///< --flight-out
  bool quiet = false;
  bool verbose = false;
};

/// One bench driver's command line and run-wide state: the recorder, its
/// sinks, the heartbeat, the merged metrics and every export path.  Every
/// bench binary except Google Benchmark's `micro` builds one from argv,
/// first thing in main, and calls finish() last.  The shared flags:
///   --threads N             run_method_row workers (default 1)
///   --trace FILE            JSONL trace of every run (mcopt_report.py)
///   --trace-sample N        keep every Nth proposal/accept/reject trio
///   --metrics-out FILE      merged metrics as JSON (alias --metrics)
///   --prom-out FILE         the same metrics as Prometheus text
///   --profile-out FILE      stage-profile tree as JSON, plus one per worker
///   --progress [SECS]       heartbeat lines, at most one per SECS (bare: 2)
///   --flight-recorder [CAP] ring of the last CAP events (bare: 4096),
///   --flight-out FILE       dumped here on a crash (default flight.jsonl)
///   --quiet / --verbose     log level (errors only / debug)
/// Runs outside run_method_row (or absorb()) are not observed.  A bad
/// command line logs the error and the usage line and exits 2; a failed
/// write makes finish() exit 1.
class Driver {
 public:
  /// Parses the shared flags plus the driver's own `own_flags` (names
  /// without the dashes; read them with count()/u64()/real()/choice()),
  /// applies MCOPT_LOG_LEVEL and then --quiet/--verbose, opens the trace,
  /// checks that MCOPT_BENCH_JSON_DIR and MCOPT_BENCH_CSV_DIR, when set,
  /// name directories (else it logs "cannot write <dir>/" and exits 1
  /// before any work) and arms the flight ring and the heartbeat it asks
  /// for.
  Driver(int argc, const char* const* argv,
         std::vector<std::string> own_flags = {});

  /// The side-effect-free parse behind the constructor.  Throws
  /// std::invalid_argument, naming the flag, on an unknown flag, a stray
  /// positional word, a conflicting pair or a bad value.
  static DriverOptions parse(const util::Args& args,
                             const std::vector<std::string>& own_flags = {});

  [[nodiscard]] unsigned threads() const noexcept { return options_.threads; }
  /// The root recorder: off (and free) unless an observability flag asked
  /// for a trace, metrics or a profile.
  [[nodiscard]] const obs::Recorder& recorder() const noexcept {
    return recorder_;
  }

  /// The driver's own numeric flags, through util::Args' typed getters; a
  /// bad value is a usage error (exit 2).
  [[nodiscard]] std::size_t count(const std::string& name,
                                  std::size_t fallback,
                                  std::size_t min) const {
    return or_usage([&] { return args_.get_count(name, fallback, min); });
  }
  [[nodiscard]] std::uint64_t u64(const std::string& name,
                                  std::uint64_t fallback,
                                  std::uint64_t min) const {
    return or_usage([&] { return args_.get_u64(name, fallback, min); });
  }
  [[nodiscard]] double real(const std::string& name, double fallback,
                            double min) const {
    return or_usage([&] { return args_.get_real(name, fallback, min); });
  }
  /// The driver's own word-valued flag: `fallback` when --name is absent,
  /// else its value, which must be one of `choices`; anything else, a bare
  /// flag included, is a usage error (exit 2).
  [[nodiscard]] std::string choice(const std::string& name,
                                   const std::vector<std::string>& choices,
                                   const std::string& fallback) const;

  /// Merges one run's metrics into the totals that finish() exports.
  /// run_method_row does this itself; call it only for runs outside that
  /// harness (the tempering loop of extension_tempering).
  void absorb(const obs::RunMetrics& metrics) { totals_.merge(metrics); }

  /// Prints the invariant-check total of every run_method_row job in
  /// invariant-checking builds; no-op otherwise.  Sanitized CI runs use
  /// this line to prove the deep checks were live during the bench.
  void print_invariant_summary() const;

  /// When MCOPT_BENCH_CSV_DIR is set, mirrors the table to
  /// <dir>/<experiment>.csv (header row + data rows) so plots can be
  /// regenerated outside the repo.  No-op otherwise.
  void write_csv(const std::string& experiment, const util::Table& table);

  /// Writes an already-serialized JSON document to <dir>/<name>.json,
  /// where <dir> is MCOPT_BENCH_JSON_DIR (BENCH_hotloop.json).  When that
  /// is unset or empty it writes nothing and says so on stdout.
  void write_json(const std::string& name, const std::string& payload);

  /// Flushes the trace, writes the --metrics-out / --profile-out /
  /// --prom-out files and logs a telemetry summary.  Call once, at the end
  /// of main.  When the trace, an export or a CSV / JSON report could not
  /// be written it logs "cannot write <path>" for each and, once every
  /// export has been tried, exits with status 1.
  void finish();

 private:
  friend std::vector<double> run_method_row(
      Driver& driver, const Method& method,
      const std::vector<netlist::Netlist>& instances,
      const TableRunConfig& config);

  /// Logs `error` and the usage line, then exits 2.
  [[noreturn]] void usage_error(const std::string& error) const;
  template <class Read>
  auto or_usage(Read read) const -> decltype(read()) {
    try {
      return read();
    } catch (const std::invalid_argument& error) {
      usage_error(error.what());
    }
  }
  /// Writes one file; on failure logs "cannot write <path>", marks the
  /// driver failed and returns false.
  bool write_export(const std::string& path, const std::string& text);

  util::Args args_;
  std::vector<std::string> own_flags_;
  DriverOptions options_;
  std::unique_ptr<obs::JsonlFileSink> trace_sink_;
  // Fans the event stream into both the trace file and the flight ring
  // when --trace and --flight-recorder are both active.
  std::unique_ptr<obs::TeeSink> flight_tee_;
  obs::Recorder recorder_;
  obs::Heartbeat heartbeat_;
  obs::RunMetrics totals_;
  /// Per worker id, the merge of the profile trees of the run_method_row
  /// jobs it ran, folded in job order: --profile-out's "workers".
  std::map<unsigned, obs::ProfileTree> worker_profiles_;
  std::uint64_t run_counter_ = 0;
  std::uint64_t invariant_checks_ = 0;
  bool write_failed_ = false;
};

/// Total reduction (summed over instances) for one method at each budget —
/// one table row.  Follows the paper's protocol: same instances, same
/// starts, per-(instance, method) move streams.  The (budget, instance)
/// jobs run on driver.threads() workers; each owns a derived RNG stream and
/// the row is reduced in index order, so it is bit-identical at any thread
/// count.  Each job is a restart-scoped shard of the driver's recorder (one
/// run id per row) whose events are drained in job order, so traces are
/// thread-count invariant too; job metrics merge into the driver totals.
std::vector<double> run_method_row(
    Driver& driver, const Method& method,
    const std::vector<netlist::Netlist>& instances,
    const TableRunConfig& config);

/// Sum of the starting densities over the instance set for the given start
/// policy (the paper quotes 2594 random / 4254 NOLA-random etc.).
long long total_start_density(const std::vector<netlist::Netlist>& instances,
                              StartKind start);

/// Total reduction achieved by the Goto heuristic itself versus the random
/// starts (the "Goto" row of Tables 4.1 / 4.2(c)).
long long goto_total_reduction(const std::vector<netlist::Netlist>& instances);

/// Prints the standard bench preamble (experiment id, seed, scale).
void print_header(const std::string& title, const std::string& protocol);

}  // namespace mcopt::bench
