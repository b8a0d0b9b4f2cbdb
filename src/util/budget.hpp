// Computation budgets.
//
// The paper compares methods under equal CPU time (6/9/12 seconds or 3
// minutes per instance on a VAX 11/780).  Wall-clock budgets are not
// reproducible across machines, so the budget unit here is a *tick*:
// one tick per move proposal (and per descent step inside the Figure 2
// strategy).  A WorkBudget of N ticks plays the role of a T-second run; the
// mapping used by the reproduction benches is documented in DESIGN.md
// (6 s ~= 600 ticks, bench::kSixSec).  Every budget is counted in ticks;
// wall time is only measured, with the Stopwatch below.
#pragma once

#include <chrono>
#include <cstdint>

namespace mcopt::util {

/// Deterministic budget counted in ticks.
class WorkBudget {
 public:
  WorkBudget() = default;
  /// A budget of `total` ticks.  total == 0 means an empty budget.
  explicit WorkBudget(std::uint64_t total) noexcept : total_(total) {}

  /// Charges `n` ticks.  Charging past exhaustion is allowed (the consumer
  /// checks exhausted() between steps); `spent` keeps counting.
  void charge(std::uint64_t n = 1) noexcept { spent_ += n; }

  [[nodiscard]] bool exhausted() const noexcept { return spent_ >= total_; }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t spent() const noexcept { return spent_; }
  [[nodiscard]] std::uint64_t remaining() const noexcept {
    return spent_ >= total_ ? 0 : total_ - spent_;
  }

  /// Fraction of the budget consumed, in [0, 1]; 1 for an empty budget.
  [[nodiscard]] double progress() const noexcept {
    if (total_ == 0) return 1.0;
    const double p = static_cast<double>(spent_) / static_cast<double>(total_);
    return p > 1.0 ? 1.0 : p;
  }

  /// Carves the budget into `k` equal slices (the paper's floor(total/k)
  /// seconds-per-temperature rule) and returns the tick count at which
  /// slice `index` (0-based) ends.  The final slice absorbs the remainder.
  [[nodiscard]] std::uint64_t slice_end(unsigned k, unsigned index) const noexcept;

 private:
  std::uint64_t total_ = 0;
  std::uint64_t spent_ = 0;
};

/// Wall-clock stopwatch: it measures runtimes (benches, calibration,
/// heartbeats) and bounds no run.
class Stopwatch {
 public:
  Stopwatch() noexcept : start_(clock::now()) {}

  void reset() noexcept { start_ = clock::now(); }

  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  [[nodiscard]] std::uint64_t nanos() const noexcept {
    const auto d = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       clock::now() - start_)
                       .count();
    return d < 0 ? 0 : static_cast<std::uint64_t>(d);
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace mcopt::util
