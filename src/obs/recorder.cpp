#include "obs/recorder.hpp"

#include <cmath>
#include <cstddef>
#include <limits>

namespace mcopt::obs {

Recorder::Recorder(TraceSink* sink, bool collect_metrics,
                   std::uint64_t trace_sample, std::uint64_t run,
                   bool collect_profile)
    : off_(sink == nullptr && !collect_metrics && !collect_profile),
      metrics_enabled_(collect_metrics || collect_profile),
      profile_enabled_(collect_profile),
      sink_(sink),
      sample_(trace_sample == 0 ? 1 : trace_sample),
      run_(run),
      countdown_(sample_) {}

Recorder Recorder::for_restart(std::uint64_t restart, std::uint64_t worker,
                               TraceSink* shard_sink) const {
  Recorder out;
  if (off_) return out;  // an off root derives off recorders, shard or not
  out.metrics_enabled_ = metrics_enabled_;
  out.profile_enabled_ = profile_enabled_;
  out.sink_ = shard_sink != nullptr ? shard_sink : sink_;
  out.off_ = out.sink_ == nullptr && !out.metrics_enabled_;
  out.sample_ = sample_;
  out.countdown_ = sample_;
  out.run_ = run_;
  out.restart_ = restart;
  out.worker_ = worker;
  return out;
}

void Recorder::begin_run(RunMetrics* metrics, std::size_t num_stages,
                         bool stage_walls) {
  if (off_) return;
  // Close any scopes left open by a previous run (begin_run without
  // end_run) *before* re-pointing metrics_: the open nodes index the old
  // tree, and discarding them would strand wall time already credited to
  // their exited children — breaking the child-sums-never-exceed-parent
  // invariant the timeline export and profiler_test rely on.
  while (!pstack_.empty()) profile_exit();
  // Likewise, the open sample runs belong to the old metrics.
  if (metrics_ != nullptr) close_runs();
  metrics_ = metrics_enabled_ ? metrics : nullptr;
  if (metrics_ != nullptr) {
    metrics_->collected = true;
    if (metrics_->stages.size() < num_stages) {
      metrics_->stages.resize(num_stages);
    }
    if (metrics_->observables.size() < num_stages) {
      metrics_->observables.resize(num_stages);
    }
  }
  countdown_ = sample_;
  sample_live_ = true;
  stage_ = kNoStage;
  tally_ = nullptr;
  observed_ = nullptr;
  stage_walls_ = stage_walls;
  have_stage_ = false;
  cur_stage_ = 0;
  pstack_.clear();
  stage_watch_.reset();
  run_watch_.reset();
}

void Recorder::end_run() {
  if (off_) return;
  // Failsafe: scopes still open when the run ends (a ProfileScope outliving
  // end_run in the runner's epilogue) are closed here; their destructors
  // then find an empty stack and no-op.
  while (!pstack_.empty()) profile_exit();
  if (metrics_ != nullptr) close_runs();
  stage_ = kNoStage;
  tally_ = nullptr;
  observed_ = nullptr;
  close_stage_wall();
  if (metrics_ != nullptr) metrics_->wall_seconds += run_watch_.seconds();
  metrics_ = nullptr;
}

StageMetrics& Recorder::stage_slot(std::uint32_t stage) {
  if (metrics_->stages.size() <= stage) {
    metrics_->stages.resize(stage + 1);
    if (tally_ != nullptr) tally_ = &metrics_->stages[stage_];
  }
  return metrics_->stages[stage];
}

StageObservables& Recorder::observables_slot(std::uint32_t stage) {
  if (metrics_->observables.size() <= stage) {
    metrics_->observables.resize(stage + 1);
    if (observed_ != nullptr) observed_ = &metrics_->observables[stage_];
  }
  return metrics_->observables[stage];
}

void Recorder::bind_stage(std::uint32_t stage) {
  stage_ = stage;
  if (metrics_ != nullptr) {
    tally_ = &stage_slot(stage);
    observed_ = &observables_slot(stage);
  }
  // No energy compares equal to NaN, so the next proposal rounds its
  // energy and checks it against the stage's open run.
  run_energy_ = std::numeric_limits<double>::quiet_NaN();
}

void Recorder::close_runs() noexcept {
  for (StageObservables& observables : metrics_->observables) {
    observables.close_run();
  }
}

// mcopt: hot
void Recorder::emit(EventKind kind, StageReason reason, std::uint32_t stage,
                    std::uint64_t tick, double cost, double best) {
  if (sink_ == nullptr) return;
  Event event;
  event.kind = kind;
  event.reason = reason;
  event.stage = stage;
  event.run = run_;
  event.restart = restart_;
  event.worker = worker_;
  event.tick = tick;
  event.cost = cost;
  event.best = best;
  sink_->write(event);
  if (metrics_ != nullptr) ++metrics_->trace_events;
}

void Recorder::close_stage_wall() {
  if (metrics_ != nullptr && stage_walls_ && have_stage_) {
    stage_slot(cur_stage_).wall_seconds += stage_watch_.seconds();
  }
}

void Recorder::stage_begin_impl(std::uint32_t stage, std::uint64_t tick,
                                double cost, double best, StageReason reason) {
  if (metrics_ != nullptr) {
    close_stage_wall();
    // A patience transition is attributed to the level it fired in, i.e.
    // the stage being left, not the one being entered.
    if (reason == StageReason::kPatience && have_stage_) {
      ++stage_slot(cur_stage_).patience_fires;
    }
    stage_watch_.reset();
  }
  have_stage_ = true;
  cur_stage_ = stage;
  emit(EventKind::kStageBegin, reason, stage, tick, cost, best);
}

// mcopt: hot
void Recorder::proposal_impl(std::uint32_t stage, std::uint64_t tick,
                             double cost, double best, double energy) {
  if (stage != stage_) bind_stage(stage);
  if (observed_ != nullptr && energy != run_energy_) {
    // llround keeps integral-valued costs exact and quantizes real-valued
    // ones deterministically; a new value ends the stage's open run.
    const std::int64_t value = std::llround(energy);
    if (value != observed_->run_value) {
      observed_->close_run();
      observed_->run_value = value;
    }
  }
  run_energy_ = energy;
  if (sample_live_) {
    countdown_ = sample_;
    emit(EventKind::kProposal, StageReason::kNone, stage, tick, cost, best);
  }
}

// mcopt: hot
void Recorder::outcome_impl(EventKind kind, std::uint32_t stage,
                            std::uint64_t tick, double cost, double best) {
  if (stage != stage_) bind_stage(stage);
  if (sample_live_) emit(kind, StageReason::kNone, stage, tick, cost, best);
}

void Recorder::new_best_impl(std::uint32_t stage, std::uint64_t tick,
                             double best) {
  if (metrics_ != nullptr) {
    ++metrics_->new_bests;
    ++stage_slot(stage).new_bests;
  }
  emit(EventKind::kNewBest, StageReason::kNone, stage, tick, best, best);
}

void Recorder::restart_begin_impl(double cost) {
  emit(EventKind::kRestartBegin, StageReason::kNone, 0, 0, cost, cost);
}

void Recorder::worker_steal_impl() {
  emit(EventKind::kWorkerSteal, StageReason::kNone, 0, 0, 0.0, 0.0);
}

void Recorder::patience_reset_impl() {
  if (metrics_ != nullptr) ++metrics_->patience_resets;
}

void Recorder::descent_ticks_impl(std::uint32_t stage, std::uint64_t n) {
  if (metrics_ != nullptr) stage_slot(stage).ticks += n;
}

void Recorder::invariant_check_impl(double seconds) {
  if (metrics_ != nullptr) {
    ++metrics_->invariant_checks;
    metrics_->invariant_seconds += seconds;
  }
}

void Recorder::stage_temperature_impl(std::uint32_t stage, double y) {
  if (metrics_ != nullptr) observables_slot(stage).temperature = y;
}

bool Recorder::profile_enter_impl(const char* name) {
  if (metrics_ == nullptr) return false;  // no run bound
  const std::int32_t parent = pstack_.empty() ? -1 : pstack_.back().node;
  const std::int32_t node = metrics_->profile.find_or_add(parent, name);
  ++metrics_->profile.nodes[static_cast<std::size_t>(node)].calls;
  pstack_.push_back(OpenScope{node, util::Stopwatch{}});
  return true;
}

void Recorder::profile_exit() {
  if (pstack_.empty() || metrics_ == nullptr) return;
  const OpenScope& top = pstack_.back();
  ProfileNode& node =
      metrics_->profile.nodes[static_cast<std::size_t>(top.node)];
  node.wall_ns += top.watch.nanos();
  pstack_.pop_back();
}

void Recorder::profile_add_ticks(std::uint64_t n) {
  if (pstack_.empty() || metrics_ == nullptr) return;
  metrics_->profile.nodes[static_cast<std::size_t>(pstack_.back().node)]
      .ticks += n;
}

}  // namespace mcopt::obs
