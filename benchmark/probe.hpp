// Layer probes for the benchmark's traced run.
//
// Spans are recorded by benchmark code around each call it makes into a
// layer's public function (a generator, a runner, the Tuner, a heuristic).
// Per-move Problem calls are far too fine for spans, so a TimedProblem
// decorator forwards them to the real problem and accumulates call counts
// and nanoseconds per operation instead.  With tracing off the Probe records
// nothing and no problem is wrapped, so the measured path is the library's
// own.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/problem.hpp"
#include "util/budget.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace mcopt::benchmark {

/// steady_clock time in nanoseconds.
[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Median cost of one now_ns() call, in nanoseconds.  Each timed call pays
/// about one such cost inside its interval and one outside it.
[[nodiscard]] double calibrate_clock_ns();

/// Nanoseconds per iteration of a fixed reference kernel (branchy integer
/// code on an L1-resident table, like a proposal), the median of three
/// timings of about 1 ms each.  It uses no library code, so it measures the
/// host's speed at that moment and nothing a library change can move.
[[nodiscard]] double reference_ns();
/// The reference kernel's result, stored so the kernel is not optimized out.
extern std::uint32_t reference_sink;

/// The Problem operations the decorator times.
enum class Op : std::size_t {
  kPropose,
  kAccept,
  kReject,
  kDescend,
  kSnapshot,
  kRestore,
  kRandomize,
  kClone,
};
inline constexpr std::size_t kNumOps = 8;

/// Problem layers whose per-move calls are counted.
enum class Layer : std::size_t { kLinarr, kTsp, kPartition };
inline constexpr std::size_t kNumLayers = 3;

struct OpStats {
  std::array<std::uint64_t, kNumOps> calls{};
  std::array<std::uint64_t, kNumOps> ns{};
  std::uint64_t descend_ticks = 0;  ///< ticks charged inside descend()

  void add(const OpStats& other) noexcept;
  [[nodiscard]] std::uint64_t total_calls() const noexcept;
  [[nodiscard]] std::uint64_t total_ns() const noexcept;
};

/// One call into a layer.  `problem_ns`/`problem_calls` are the decorated
/// Problem calls made on the span's own thread while it was open.
struct Span {
  const char* name = "";
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::int64_t parent = -1;
  std::uint64_t solve = 0;   ///< solve id; 0 outside any solve
  std::uint32_t thread = 0;  ///< 0 = the driver thread
  std::uint64_t ticks = 0;   ///< library ticks charged inside, where known
  std::uint64_t arg = 0;     ///< worker threads, for multistart spans
  std::uint64_t problem_ns = 0;
  std::uint64_t problem_calls = 0;
};

class Probe {
 public:
  explicit Probe(bool enabled);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Driver-thread spans, properly nested.
  [[nodiscard]] std::size_t open(const char* name, std::uint64_t solve);
  void close(std::size_t index, std::uint64_t ticks, std::uint64_t arg);
  /// The innermost open driver-thread span, or -1.
  [[nodiscard]] std::int64_t innermost() const noexcept;

  /// A span measured on a pool thread (a multistart runner call).
  void add_worker_span(Span span) EXCLUDES(mu_);
  [[nodiscard]] bool on_driver_thread() const noexcept {
    return std::this_thread::get_id() == driver_;
  }

  /// Counters for decorated problems used on the driver thread.
  [[nodiscard]] OpStats& direct(Layer layer) noexcept {
    return direct_[static_cast<std::size_t>(layer)];
  }
  /// Folds a clone's private counters in when the clone dies.
  void fold(Layer layer, const OpStats& stats) EXCLUDES(mu_);

  /// Workload-specific measurements reported beside the spans.
  void add_extra(const std::string& key, double value);

  /// The whole trace: spans, per-layer op counters and extras.
  [[nodiscard]] std::string to_json(std::uint64_t begin_ns,
                                    std::uint64_t end_ns,
                                    double clock_ns) const EXCLUDES(mu_);

 private:
  [[nodiscard]] std::uint64_t direct_ns() const noexcept;
  [[nodiscard]] std::uint64_t direct_calls() const noexcept;

  bool enabled_;
  std::thread::id driver_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
  std::array<OpStats, kNumLayers> direct_{};
  std::map<std::string, double> extras_;
  mutable util::Mutex mu_;
  std::vector<Span> worker_spans_ GUARDED_BY(mu_);
  std::array<OpStats, kNumLayers> folded_ GUARDED_BY(mu_){};
};

/// RAII driver-thread span; inert when the probe is off.
class SpanScope {
 public:
  SpanScope(Probe& probe, const char* name, std::uint64_t solve = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void set_ticks(std::uint64_t ticks) noexcept { ticks_ = ticks; }
  void set_arg(std::uint64_t arg) noexcept { arg_ = arg; }

 private:
  Probe* probe_;
  std::size_t index_ = 0;
  std::uint64_t ticks_ = 0;
  std::uint64_t arg_ = 0;
};

/// Forwards every core::Problem call to `inner` and times the per-move
/// operations.  A problem made by the benchmark counts straight into the
/// probe's driver-thread counters; a clone() (one per multistart worker)
/// counts privately and folds its totals into the probe when destroyed.
class TimedProblem final : public core::Problem {
 public:
  TimedProblem(std::unique_ptr<core::Problem> inner, Layer layer,
               Probe& probe);
  ~TimedProblem() override;
  TimedProblem(const TimedProblem&) = delete;
  TimedProblem& operator=(const TimedProblem&) = delete;

  [[nodiscard]] double cost() const override { return inner_->cost(); }
  double propose(util::Rng& rng) override;
  void accept() override;
  void reject() override;
  void descend(util::WorkBudget& budget) override;
  void randomize(util::Rng& rng) override;
  [[nodiscard]] core::Snapshot snapshot() const override;
  void snapshot_into(core::Snapshot& out) const override;
  void restore(const core::Snapshot& snap) override;
  [[nodiscard]] std::unique_ptr<core::Problem> clone() const override;
  void check_invariants() const override { inner_->check_invariants(); }

  /// The counters this problem writes to.
  [[nodiscard]] const OpStats& stats() const noexcept { return *stats_; }

 private:
  struct Private {};
  TimedProblem(std::unique_ptr<core::Problem> inner, Layer layer,
               Probe& probe, Private);

  std::unique_ptr<core::Problem> inner_;
  Layer layer_;
  Probe* probe_;
  bool owns_stats_;
  OpStats own_;
  OpStats* stats_;
};

/// Wraps `problem` in a TimedProblem when the probe is on.
[[nodiscard]] std::unique_ptr<core::Problem> instrument(
    std::unique_ptr<core::Problem> problem, Layer layer, Probe& probe);

}  // namespace mcopt::benchmark
