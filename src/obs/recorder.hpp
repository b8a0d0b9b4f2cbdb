// The Recorder: the single instrumentation handle the optimizers talk to.
//
// Runners receive a `const Recorder*` through their options struct and take
// a by-value copy at the top of the run (a Recorder is a few words), which
// binds the copy to that run's RunResult::metrics block and gives it a
// private sampling counter — so the emitted stream is a pure function of
// the seed no matter which thread executes the restart.
//
// Near-zero overhead when off: a default-constructed Recorder is *off*,
// and every event method starts with an inlined `if (off_) return;`.
// bench/hotloop.cpp prices this against a hand-stripped copy of the
// same loop; CI and the committed BENCH_hotloop.json gate it at 10%
// (`--gate-pct 10.0`, the bench's default is 1%), and it measures a few
// percent.
//
// When on, the recorder's cost follows accepted moves, not proposals.  The
// chain's cost changes only when a move with a nonzero delta is accepted,
// so each stage's observable samples come in runs of equal values: the
// recorder counts the stage's open run and folds it into the stage's
// StageObservables with one add_run() when the stage's value changes, at
// end_run(), or at a begin_run() that found the previous run still open.
// Stages that interleave (tempering's replicas) each keep their own open
// run.  The stage's StageMetrics and StageObservables are looked up when
// the stage changes, not per event; the proposal-mix counters are indexed
// by the sign of delta, and a countdown picks the sampled trios.  So the
// observables are complete only after end_run() (or the next begin_run()).
//
// Thread-safety: a Recorder is single-writer (its sampling counter and
// metrics pointer are unsynchronized by design — each run owns its copy).
// Sinks are single-writer too (obs/trace.hpp): each restart gets its own
// shard recorder via for_restart() pointing at a private VectorSink, and
// the engine's fold drains shards in restart-index order after the join,
// so the trace is both race-free and deterministic.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/event.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "util/budget.hpp"

namespace mcopt::obs {

class Recorder {
 public:
  /// Off: every event method is a single predicted-not-taken branch.
  Recorder() = default;

  /// On.  `sink` may be null for metrics-only collection; `trace_sample`
  /// keeps every Nth proposal/accept/reject trio (<=1 keeps all); `run` is
  /// the caller-chosen run id stamped on every event.  `collect_profile`
  /// turns on the hierarchical stage profiler (implies metrics collection —
  /// the tree lives inside RunMetrics).
  explicit Recorder(TraceSink* sink, bool collect_metrics = true,
                    std::uint64_t trace_sample = 1, std::uint64_t run = 0,
                    bool collect_profile = false);

  [[nodiscard]] bool on() const noexcept { return !off_; }
  [[nodiscard]] bool tracing() const noexcept { return sink_ != nullptr; }
  [[nodiscard]] bool collecting_metrics() const noexcept {
    return metrics_enabled_;
  }
  [[nodiscard]] bool profiling() const noexcept { return profile_enabled_; }
  [[nodiscard]] std::uint64_t run_id() const noexcept { return run_; }
  [[nodiscard]] std::uint64_t restart_id() const noexcept { return restart_; }
  /// The sink events are routed to (null when not tracing).  Exposed so
  /// the parallel engine can drain per-restart shards into it in order.
  [[nodiscard]] TraceSink* sink() const noexcept { return sink_; }

  /// A recorder for one restart: same configuration, fresh sampling state,
  /// events stamped (restart, worker) and routed to `shard_sink` (typically
  /// a private VectorSink the engine later drains in index order; null
  /// keeps the parent's sink — only safe single-threaded).
  [[nodiscard]] Recorder for_restart(std::uint64_t restart,
                                     std::uint64_t worker,
                                     TraceSink* shard_sink) const;

  /// A copy of this recorder stamped with a different run id (the bench
  /// harness gives each table row its own run id).
  [[nodiscard]] Recorder with_run(std::uint64_t run) const {
    Recorder out = *this;
    out.run_ = run;
    return out;
  }

  /// Binds this recorder to a run: metrics flow into `*metrics` (sized to
  /// `num_stages` levels up front), wall clocks restart.  Call once per
  /// runner invocation; end_run() closes the open stage and the run clock.
  /// `stage_walls = false` skips per-stage wall attribution — for runners
  /// whose levels interleave in time (tempering) rather than run monotone.
  void begin_run(RunMetrics* metrics, std::size_t num_stages,
                 bool stage_walls = true);
  void end_run();

  // --- event methods (hot path: inlined off-test, out-of-line slow path).
  // `cost`/`best` conventions: accept/reject carry the candidate cost and
  // the best BEFORE the move; new_best follows the accept that improved it.

  void stage_begin(std::uint32_t stage, std::uint64_t tick, double cost,
                   double best, StageReason reason) {
    if (off_) return;
    stage_begin_impl(stage, tick, cost, best, reason);
  }

  // proposal/accept/reject run once per proposal, so their common case is
  // inline and calls nothing: a proposal that keeps the bound stage, keeps
  // the chain's cost and is not sampled for the trace lengthens the open
  // run of equal observable samples and bumps the bound stage's counters.
  // The out-of-line paths take the rest: a sampled trio, a cost change
  // (which may end the run) and a stage change (which binds the new
  // stage's records).

  /// `delta` is the candidate's cost change (candidate - current); its sign
  /// drives the proposal-mix counters and its magnitude the uphill
  /// histograms.  The trace event schema is unchanged.
  // mcopt: hot
  void proposal(std::uint32_t stage, std::uint64_t tick, double cost,
                double best, double delta) {
    if (off_) return;
    // The chain's energy at this proposal is the pre-move cost; runners
    // pass the candidate cost plus its delta, so recover it.
    const double energy = cost - delta;
    sample_live_ = --countdown_ == 0;
    if (sample_live_ || stage != stage_ ||
        (energy != run_energy_ && tally_ != nullptr)) {
      proposal_impl(stage, tick, cost, best, energy);
    }
    if (tally_ == nullptr) return;  // tracing without metrics
    ++observed_->run_length;
    ++tally_->proposals;
    ++tally_->ticks;
    const std::size_t sign = sign_of(delta);
    ++(tally_->*kProposalMix[sign]);
    if (sign == kUphill) metrics_->uphill_delta_proposed.record(delta);
  }
  // mcopt: hot
  void accept(std::uint32_t stage, std::uint64_t tick, double cost,
              double best, double delta) {
    if (off_) return;
    if (sample_live_ || stage != stage_) {
      outcome_impl(EventKind::kAccept, stage, tick, cost, best);
    }
    if (tally_ == nullptr) return;
    const bool uphill = delta > 0.0;
    ++tally_->accepts;
    tally_->uphill_accepts += uphill ? 1 : 0;
    if (uphill) metrics_->uphill_delta_accepted.record(delta);
  }
  // mcopt: hot
  void reject(std::uint32_t stage, std::uint64_t tick, double cost,
              double best) {
    if (off_) return;
    if (sample_live_ || stage != stage_) {
      outcome_impl(EventKind::kReject, stage, tick, cost, best);
    }
    if (tally_ != nullptr) ++tally_->rejects;
  }
  void new_best(std::uint32_t stage, std::uint64_t tick, double best) {
    if (off_) return;
    new_best_impl(stage, tick, best);
  }
  void restart_begin(double cost) {
    if (off_) return;
    restart_begin_impl(cost);
  }
  void worker_steal() {
    if (off_) return;
    worker_steal_impl();
  }

  // --- metrics-only hooks (no trace event).

  /// The Step 4 reject counter was reset by an accept before firing.
  void patience_reset() {
    if (off_) return;
    patience_reset_impl();
  }
  /// `n` budget ticks of pure descent charged at `stage` (Figure 2).
  void descent_ticks(std::uint32_t stage, std::uint64_t n) {
    if (off_) return;
    descent_ticks_impl(stage, n);
  }
  /// One deep invariant verification took `seconds` of wall time.
  void invariant_check(double seconds) {
    if (off_) return;
    invariant_check_impl(seconds);
  }
  /// Declares the Boltzmann temperature of a stage (observables use it for
  /// the specific-heat estimate).  Pass 0 when the acceptance rule has no
  /// temperature interpretation.  Idempotent; call any time after
  /// begin_run().
  void stage_temperature(std::uint32_t stage, double y) {
    if (off_) return;
    stage_temperature_impl(stage, y);
  }
  // --- profiler hooks (used via ProfileScope / MCOPT_PROFILE_SCOPE).

  /// Opens scope `name` under the current scope.  Returns false (no-op)
  /// unless profiling is on and a run is bound.
  bool profile_enter(const char* name) {
    if (off_ || !profile_enabled_) return false;
    return profile_enter_impl(name);
  }
  void profile_exit();
  /// Charges deterministic ticks to the innermost open scope.
  void profile_add_ticks(std::uint64_t n);

 private:
  void stage_begin_impl(std::uint32_t stage, std::uint64_t tick, double cost,
                        double best, StageReason reason);
  void proposal_impl(std::uint32_t stage, std::uint64_t tick, double cost,
                     double best, double energy);
  void outcome_impl(EventKind kind, std::uint32_t stage, std::uint64_t tick,
                    double cost, double best);
  void new_best_impl(std::uint32_t stage, std::uint64_t tick, double best);
  void restart_begin_impl(double cost);
  void worker_steal_impl();
  void patience_reset_impl();
  void descent_ticks_impl(std::uint32_t stage, std::uint64_t n);
  void invariant_check_impl(double seconds);
  void stage_temperature_impl(std::uint32_t stage, double y);
  bool profile_enter_impl(const char* name);

  /// The proposal-mix counters indexed by the sign of Δcost: 0 downhill,
  /// 1 sideways (or NaN), 2 uphill.
  static constexpr std::size_t kUphill = 2;
  static std::size_t sign_of(double delta) noexcept {
    return static_cast<std::size_t>(1 + (delta > 0.0) - (delta < 0.0));
  }
  static constexpr std::array<std::uint64_t StageMetrics::*, 3> kProposalMix{
      &StageMetrics::downhill_proposals, &StageMetrics::sideways_proposals,
      &StageMetrics::uphill_proposals};
  /// No stage bound: the next proposal/accept/reject binds one.
  static constexpr std::uint32_t kNoStage = ~std::uint32_t{0};

  /// stages[stage], growing the vector if a runner visits more levels than
  /// begin_run() was told about (and then re-pointing tally_).
  StageMetrics& stage_slot(std::uint32_t stage);
  /// observables[stage], same growth rule (re-pointing observed_).
  /// Observables are fed strictly from this un-sampled metrics path — the
  /// --trace-sample stride gates trace emission only, so sampled and
  /// unsampled runs report byte-identical observables (regression-tested).
  StageObservables& observables_slot(std::uint32_t stage);
  /// Binds `stage`: sizes its StageMetrics and StageObservables slots and
  /// points tally_/observed_ at them, so the per-event paths never look a
  /// stage up or resize.  The stage's open sample run stays open.
  void bind_stage(std::uint32_t stage);
  /// Folds every stage's open sample run into its observables.
  void close_runs() noexcept;
  void emit(EventKind kind, StageReason reason, std::uint32_t stage,
            std::uint64_t tick, double cost, double best);
  void close_stage_wall();

  bool off_ = true;
  bool metrics_enabled_ = false;
  bool profile_enabled_ = false;
  TraceSink* sink_ = nullptr;
  std::uint64_t sample_ = 1;
  std::uint64_t run_ = 0;
  std::uint64_t restart_ = 0;
  std::uint64_t worker_ = 0;

  // Per-run state, reset by begin_run().
  RunMetrics* metrics_ = nullptr;
  std::uint64_t countdown_ = 1;  // proposals until the next sampled trio
  bool sample_live_ = true;      // does the current trio pass the stride?
  // The bound stage and its records (null when not collecting metrics).
  // Each stage's open sample run lives in its StageObservables; run_energy_
  // is the last energy seen at the bound stage, whose rounding is the open
  // run's value, so a repeat of it extends the run without rounding again.
  std::uint32_t stage_ = kNoStage;
  StageMetrics* tally_ = nullptr;
  StageObservables* observed_ = nullptr;
  double run_energy_ = 0.0;
  bool stage_walls_ = true;      // attribute wall time to stages?
  bool have_stage_ = false;      // has any stage_begin fired yet?
  std::uint32_t cur_stage_ = 0;  // stage whose wall clock is open
  util::Stopwatch stage_watch_;
  util::Stopwatch run_watch_;

  // Open profile scopes, innermost last; end_run() failsafe-closes.
  struct OpenScope {
    std::int32_t node;
    util::Stopwatch watch;
  };
  std::vector<OpenScope> pstack_;
};

// ProfileScope's members live here, not in profiler.cpp: profiler.hpp is
// included above before Recorder exists, and keeping these inline makes a
// scope on an off/non-profiling recorder a single predicted branch with no
// call — the property bench/hotloop's off-path gate holds.
inline ProfileScope::ProfileScope(Recorder& recorder, const char* name)
    : recorder_(recorder.profile_enter(name) ? &recorder : nullptr) {}

inline ProfileScope::~ProfileScope() {
  if (recorder_ != nullptr) recorder_->profile_exit();
}

inline void ProfileScope::add_ticks(std::uint64_t n) {
  if (recorder_ != nullptr) recorder_->profile_add_ticks(n);
}

}  // namespace mcopt::obs
