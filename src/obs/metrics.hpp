// Per-run metrics: counters and per-stage tallies summarizing a run's
// internal dynamics without the volume of a full trace.
//
// RunMetrics rides inside core::RunResult (the `metrics` block) so the
// multistart engines can merge per-restart metrics with the same
// index-ordered fold they already use for work counters — per-worker
// metric shards therefore reduce deterministically at any thread count.
// Collection is opt-in via obs::Recorder; when no recorder is active the
// block stays empty (`collected == false`, no stage vector) and costs one
// predictable branch per runner event.
//
// Determinism: every counter is a pure function of the seed.  The
// *_seconds fields are wall-clock (steady_clock durations) and are
// explicitly excluded from the bit-reproducibility contract — they exist
// for profiling, never for comparison across runs.
//
// to_json() is the body of the bench drivers' run report (--report-out),
// the one document tools/mcopt_report.py summarizes and renders as
// Prometheus text and as a timeline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/observables.hpp"
#include "obs/profiler.hpp"

namespace mcopt::obs {

/// Tallies for one temperature level (one replica, for tempering).
struct StageMetrics {
  std::uint64_t proposals = 0;       ///< perturbations sampled at this level
  std::uint64_t accepts = 0;         ///< committed
  std::uint64_t uphill_accepts = 0;  ///< committed with a cost increase
  std::uint64_t rejects = 0;         ///< discarded
  std::uint64_t downhill_proposals = 0;  ///< proposal mix: Δcost < 0
  std::uint64_t sideways_proposals = 0;  ///< proposal mix: Δcost == 0
  std::uint64_t uphill_proposals = 0;    ///< proposal mix: Δcost > 0
  std::uint64_t new_bests = 0;       ///< best-so-far improvements
  std::uint64_t patience_fires = 0;  ///< Step 4 counter advanced OUT of here
  std::uint64_t ticks = 0;           ///< budget ticks charged at this level
  double wall_seconds = 0.0;         ///< wall time spent (staged runners only)

  StageMetrics& operator+=(const StageMetrics& other) noexcept;

  /// accepts / proposals, 0 when no proposals were made.
  [[nodiscard]] double acceptance_rate() const noexcept {
    return proposals == 0
               ? 0.0
               : static_cast<double>(accepts) / static_cast<double>(proposals);
  }

  /// uphill_accepts / uphill_proposals — the empirical acceptance rate of
  /// cost-increasing moves, i.e. the realized g(t) of this stage.  0 when
  /// no uphill move was proposed.
  [[nodiscard]] double uphill_rate() const noexcept {
    return uphill_proposals == 0 ? 0.0
                                 : static_cast<double>(uphill_accepts) /
                                       static_cast<double>(uphill_proposals);
  }
};

/// Whole-run (or whole-aggregate) metrics summary.
struct RunMetrics {
  bool collected = false;  ///< true once a metrics-enabled Recorder ran

  std::uint64_t restarts = 0;         ///< multistart restarts folded in
  std::uint64_t new_bests = 0;        ///< best-so-far improvements
  std::uint64_t patience_resets = 0;  ///< Step 4 counter reset by an accept
  std::uint64_t trace_events = 0;     ///< events emitted (post-sampling)
  std::uint64_t invariant_checks = 0; ///< deep verifications timed below
  double invariant_seconds = 0.0;     ///< wall time inside check_invariants()
  double wall_seconds = 0.0;          ///< wall time of the run(s)
  /// Parallel-engine scheduling behaviour.  Like `worker` stamps on events,
  /// this is deliberately nondeterministic (it observes the scheduler) and
  /// is excluded from the deterministic JSON.
  std::uint64_t worker_steals = 0;    ///< restarts claimed by pool workers
  /// Uphill Δcost magnitudes, log-bucketed (obs/histogram.hpp): every
  /// proposed uphill move, and the subset that was accepted.
  LogHistogram uphill_delta_proposed;
  LogHistogram uphill_delta_accepted;
  ProfileTree profile;                ///< hierarchical stage profile, if on
  std::vector<StageMetrics> stages;   ///< indexed by temperature level
  /// Thermodynamic observables per temperature level (exact cost-series
  /// statistics, specific heat, autocorrelation, equilibrium detection) —
  /// same index space as `stages`, same shard-merge discipline.
  std::vector<StageObservables> observables;

  /// Element-wise accumulation; stage vectors of different lengths merge by
  /// index (the shorter one is treated as zero-padded).
  void merge(const RunMetrics& other);

  /// Pretty-printed JSON object (stable key order, two-space indent), the
  /// profile included — the body of the bench drivers' --report-out FILE.
  /// `deterministic_only` drops the wall clocks and the steal count (the
  /// fields schema.def's nondeterministic families carry) and the
  /// profile's wall_ns: the form compared byte for byte across thread
  /// counts.
  [[nodiscard]] std::string to_json(bool deterministic_only = false) const;

  /// One-line human summary for logs and RunResult::to_string.
  [[nodiscard]] std::string summary() const;
};

}  // namespace mcopt::obs
