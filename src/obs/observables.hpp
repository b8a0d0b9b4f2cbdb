// Per-temperature-stage thermodynamic observables, maintained online.
//
// The paper's open questions — is the chain equilibrated at each
// temperature, is the schedule long enough, when does annealing stop
// paying for itself — are answered by a handful of statistics of the
// cost (energy) time series per stage: mean energy, energy variance (and
// through it the specific heat C = Var(E)/T², the quantity whose peak
// marks the freezing transition), short-lag autocorrelation (how slowly
// the chain decorrelates), and a drift test that flags a stage as
// equilibrated.  StageObservables maintains all of them in exact integer
// arithmetic so that — like every other metric in this project — the
// result is a pure function of the seed:
//
//   * samples are the chain's current cost at each proposal, quantized
//     with llround (exact for the integral-valued density/partition
//     costs; a deterministic quantization for real-valued ones);
//   * they arrive in runs: the chain's cost changes only when a move
//     with a nonzero delta is accepted, so obs::Recorder counts equal
//     consecutive samples of a stage in the stage's open run and folds
//     the run in with one add_run(x, n) when the stage's value changes
//     or the recorder's run ends.  Every accumulator below has a closed
//     form over a run, so n equal samples and one run of length n leave
//     identical integers — and therefore identical exports;
//   * first and second moments accumulate in int64 / int128 sums (the
//     cancellation-free integer analogue of Welford's recurrence —
//     floating point enters only in the derived accessors);
//   * lag-k autocorrelation accumulates Σ x_i·x_{i-k} cross-sums over a
//     fixed ring of the last kMaxLag samples;
//   * the equilibrium detector compares consecutive windows of
//     kEquilibriumWindow samples with an exact integer threshold:
//     |Σwindow - Σprev| <= kMeanDriftLimit * kEquilibriumWindow, i.e. the
//     windowed mean drifted by at most kMeanDriftLimit cost units.
//
// Because every accumulator merges by commutative integer addition (plus
// a min for the first detection point and a max for the stage
// temperature), per-restart shards reduce to bit-identical aggregates in
// any grouping — the same contract LogHistogram documents — and the
// derived doubles, computed only at export time, inherit it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace mcopt::obs {

/// 128-bit accumulator for second moments and cross products (gcc/clang
/// builtin; both toolchains the project supports provide it).  int64
/// would overflow after ~2 samples of a 2^31-scale cost.
using WideInt = __int128;

/// Exact running statistics of one temperature stage's cost series.
///
/// Fed by obs::Recorder from the un-sampled metrics path (never the
/// strided trace path, so --trace-sample cannot change a single bit of
/// these), one run of equal samples at a time.  The accumulator fields
/// merge across restart shards; the "transient" fields at the bottom are
/// per-run state and are deliberately neither merged nor exported.
struct StageObservables {
  /// Autocorrelation lags tracked (1..kMaxLag).
  static constexpr std::size_t kMaxLag = 8;
  /// Samples per equilibrium-detector window.
  static constexpr std::uint64_t kEquilibriumWindow = 32;
  /// Maximum allowed windowed-mean drift, in whole cost units per sample.
  static constexpr std::int64_t kMeanDriftLimit = 1;

  // --- exact accumulators (merged by addition).
  std::uint64_t samples = 0;  ///< cost samples observed (one per proposal)
  std::int64_t sum = 0;       ///< Σ x
  WideInt sum_sq = 0;         ///< Σ x²
  std::array<WideInt, kMaxLag> lag_cross{};        ///< Σ x_i·x_{i-lag}
  std::array<std::uint64_t, kMaxLag> lag_pairs{};  ///< pairs per lag
  std::uint64_t windows = 0;  ///< completed detector windows

  // --- merged with dedicated semantics.
  /// Runs (restart shards) whose detector flagged this stage; sums.
  std::uint64_t equilibrated_runs = 0;
  /// Sample index (1-based, within its run) of the earliest detection
  /// across all merged runs; 0 = never detected; min-merges over nonzero.
  std::uint64_t first_equilibrated_sample = 0;
  /// Boltzmann temperature Y_t of this stage, when the acceptance rule
  /// has one (annealing/Metropolis/tempering); 0 otherwise.  Identical
  /// across shards of one configuration, so max-merge is exact.
  double temperature = 0.0;

  // --- transient per-run state: NOT merged, NOT exported.
  /// The open run: run_length samples of run_value that the recorder has
  /// counted but not folded in yet.  The accumulators see them only after
  /// close_run(), which the recorder calls when this stage's value changes
  /// and when its run ends (so interleaved stages each keep their own).
  std::int64_t run_value = 0;
  std::uint64_t run_length = 0;
  std::array<std::int64_t, kMaxLag> ring{};  ///< last kMaxLag samples
  std::int64_t window_sum = 0;       ///< current (partial) window
  std::int64_t prev_window_sum = 0;  ///< last completed window
  std::uint64_t window_count = 0;    ///< samples in the current window
  bool have_prev_window = false;
  bool equilibrated = false;  ///< this run flagged this stage

  /// Folds in a run of `n` consecutive samples all equal to `x`, exactly
  /// as `n` single samples would: n·x and n·x² for the moments, (n-k)·x²
  /// for the lag-k pairs inside the run, x times prefix sums of the ring
  /// for the pairs reaching back before it, and each detector window the
  /// run completes checked once.  Exact; consumes no randomness; n = 0 is
  /// a no-op.
  void add_run(std::int64_t x, std::uint64_t n) noexcept;

  /// Folds one cost sample in: a run of length one.
  void add_sample(std::int64_t x) noexcept { add_run(x, 1); }

  /// Folds the open run in and empties it.
  void close_run() noexcept {
    add_run(run_value, run_length);
    run_length = 0;
  }

  /// Accumulator merge (see the field comments for per-field semantics).
  /// Commutative and associative over the exported statistics, which is
  /// what makes shard reduction order-free.
  void merge(const StageObservables& other) noexcept;

  // --- derived statistics (floating point enters here only).
  [[nodiscard]] double mean() const noexcept;
  /// Population variance, from the exact moment sums.
  [[nodiscard]] double variance() const noexcept;
  /// Var(E)/T² when a temperature is known; 0 otherwise.
  [[nodiscard]] double specific_heat() const noexcept;
  /// Lag-k autocorrelation estimate (Σx_i·x_{i-k}/pairs - mean²)/variance
  /// for k in 1..kMaxLag; 0 when undefined (no pairs or zero variance).
  [[nodiscard]] double autocorrelation(std::size_t lag) const noexcept;
};

}  // namespace mcopt::obs
