#include "obs/observables.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

namespace mcopt::obs {

// mcopt: hot
void StageObservables::add_run(std::int64_t x, std::uint64_t n) noexcept {
  if (n == 0) return;
  const std::uint64_t before = samples;
  const WideInt wide_x = x;
  const WideInt square = wide_x * wide_x;

  // Cross products.  Pairs never span runs of the recorder: the ring is
  // transient per-run state, so the first kMaxLag samples of every run
  // contribute fewer pairs, deterministically.  A lag pairs (n-lag)⁺
  // samples inside the run, worth x² each.  Its partners before the run
  // are the ones lo+1..hi samples back; back[d] sums the d most recent,
  // so they add x·(back[hi] - back[lo]).  (Ring slots not written yet
  // hold 0, so back[] needs no bound.)
  const std::uint64_t held =
      std::min<std::uint64_t>(before, static_cast<std::uint64_t>(kMaxLag));
  std::array<std::int64_t, kMaxLag + 1> back{};
  for (std::uint64_t d = 1; d <= kMaxLag; ++d) {
    back[d] = back[d - 1] + ring[(before - d) % kMaxLag];
  }
  for (std::uint64_t lag = 1; lag <= kMaxLag; ++lag) {
    const std::uint64_t inside = n > lag ? n - lag : 0;
    const std::uint64_t hi = std::min(lag, held);
    const std::uint64_t lo = std::min(lag - std::min(lag, n), hi);
    lag_cross[lag - 1] +=
        square * static_cast<WideInt>(inside) +
        wide_x * static_cast<WideInt>(back[hi] - back[lo]);
    lag_pairs[lag - 1] += inside + (hi - lo);
  }
  const std::uint64_t tail =
      std::min<std::uint64_t>(n, static_cast<std::uint64_t>(kMaxLag));
  for (std::uint64_t i = before + n - tail; i < before + n; ++i) {
    ring[i % kMaxLag] = x;
  }
  samples = before + n;
  sum = static_cast<std::int64_t>(static_cast<WideInt>(sum) +
                                  wide_x * static_cast<WideInt>(n));
  sum_sq += square * static_cast<WideInt>(n);

  // Detector windows: each window the run completes is checked once.
  std::uint64_t left = n;
  std::uint64_t at = before;  // samples folded so far
  while (left > 0) {
    const std::uint64_t take =
        std::min(left, kEquilibriumWindow - window_count);
    window_sum += x * static_cast<std::int64_t>(take);
    window_count += take;
    left -= take;
    at += take;
    if (window_count < kEquilibriumWindow) break;
    ++windows;
    if (have_prev_window && !equilibrated) {
      const std::int64_t drift = window_sum - prev_window_sum;
      const std::int64_t magnitude = drift < 0 ? -drift : drift;
      const std::int64_t limit =
          kMeanDriftLimit * static_cast<std::int64_t>(kEquilibriumWindow);
      if (magnitude <= limit) {
        equilibrated = true;
        ++equilibrated_runs;
        first_equilibrated_sample = at;
      }
    }
    prev_window_sum = window_sum;
    have_prev_window = true;
    window_sum = 0;
    window_count = 0;
  }
}

void StageObservables::merge(const StageObservables& other) noexcept {
  samples += other.samples;
  sum += other.sum;
  sum_sq += other.sum_sq;
  for (std::size_t lag = 0; lag < kMaxLag; ++lag) {
    lag_cross[lag] += other.lag_cross[lag];
    lag_pairs[lag] += other.lag_pairs[lag];
  }
  windows += other.windows;
  equilibrated_runs += other.equilibrated_runs;
  if (other.first_equilibrated_sample != 0 &&
      (first_equilibrated_sample == 0 ||
       other.first_equilibrated_sample < first_equilibrated_sample)) {
    first_equilibrated_sample = other.first_equilibrated_sample;
  }
  temperature = std::max(temperature, other.temperature);
  // Transient open-run/ring/window state is per-run by design: merging it
  // would make aggregates depend on shard grouping.
}

double StageObservables::mean() const noexcept {
  if (samples == 0) return 0.0;
  return static_cast<double>(sum) / static_cast<double>(samples);
}

double StageObservables::variance() const noexcept {
  if (samples == 0) return 0.0;
  // n·Σx² - (Σx)² is exact in 128-bit for any realistic run length; the
  // single rounding happens in the final conversion, identically on
  // every merge grouping because the integer inputs are identical.
  const WideInt n = static_cast<WideInt>(samples);
  const WideInt wide_sum = static_cast<WideInt>(sum);
  const WideInt numerator = sum_sq * n - wide_sum * wide_sum;
  return static_cast<double>(numerator) /
         (static_cast<double>(samples) * static_cast<double>(samples));
}

double StageObservables::specific_heat() const noexcept {
  if (temperature <= 0.0) return 0.0;
  return variance() / (temperature * temperature);
}

double StageObservables::autocorrelation(std::size_t lag) const noexcept {
  if (lag == 0 || lag > kMaxLag) return 0.0;
  const std::uint64_t pairs = lag_pairs[lag - 1];
  if (pairs == 0) return 0.0;
  const double var = variance();
  if (var <= 0.0) return 0.0;
  const double mu = mean();
  const double cross_mean =
      static_cast<double>(lag_cross[lag - 1]) / static_cast<double>(pairs);
  return (cross_mean - mu * mu) / var;
}

}  // namespace mcopt::obs
