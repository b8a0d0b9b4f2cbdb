#include "obs/registry.hpp"

#include <cstdio>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/perfcount.hpp"

namespace mcopt::obs {

namespace {

/// `family{label="x"}` -> `family`; plain names pass through.
std::string base_name(const std::string& name) {
  const std::size_t brace = name.find('{');
  return brace == std::string::npos ? name : name.substr(0, brace);
}

void append_u64(std::uint64_t value, std::string& out) {
  char buf[24];
  const int n = std::snprintf(buf, sizeof buf, "%llu",
                              static_cast<unsigned long long>(value));
  out.append(buf, static_cast<std::size_t>(n > 0 ? n : 0));
}

void append_double(double value, std::string& out) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof buf, "%.17g", value);
  out.append(buf, static_cast<std::size_t>(n > 0 ? n : 0));
}

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "counter";
}

/// Prometheus histogram sample block: family_bucket{le=...} lines plus
/// family_sum / family_count.  `labels` is the metric's own label part
/// (with braces) or empty.
void append_prom_histogram(const std::string& family,
                           const std::string& labels, const LogHistogram& h,
                           std::string& out) {
  std::size_t last = 0;
  for (std::size_t i = 0; i + 1 < LogHistogram::kNumBuckets; ++i) {
    if (h.bucket(i) != 0) last = i;
  }
  const bool extra = !labels.empty();
  for (std::size_t i = 0; i <= last && i + 1 < LogHistogram::kNumBuckets;
       ++i) {
    if (h.empty()) break;
    out += family;
    out += "_bucket{";
    if (extra) {
      // labels arrives as `{k="v"}`; splice its body before `le`.
      out.append(labels, 1, labels.size() - 2);
      out += ",";
    }
    out += "le=\"";
    append_u64(LogHistogram::bucket_bound(i), out);
    out += "\"} ";
    append_u64(h.cumulative(i), out);
    out += "\n";
  }
  out += family;
  out += "_bucket{";
  if (extra) {
    out.append(labels, 1, labels.size() - 2);
    out += ",";
  }
  out += "le=\"+Inf\"} ";
  append_u64(h.count(), out);
  out += "\n";
  out += family;
  out += "_sum";
  out += labels;
  out += " ";
  append_double(h.sum(), out);
  out += "\n";
  out += family;
  out += "_count";
  out += labels;
  out += " ";
  append_u64(h.count(), out);
  out += "\n";
}

}  // namespace

Metric& MetricsRegistry::slot_locked(const std::string& name, MetricKind kind,
                                     const char* help, bool deterministic) {
  Metric& m = metrics_[name];
  if (m.help.empty() && help != nullptr) m.help = help;
  m.kind = kind;
  m.deterministic = m.deterministic && deterministic;
  return m;
}

void MetricsRegistry::counter_add_locked(const std::string& name,
                                         const char* help, std::uint64_t v,
                                         bool deterministic) {
  slot_locked(name, MetricKind::kCounter, help, deterministic).value += v;
}

void MetricsRegistry::gauge_max_locked(const std::string& name,
                                       const char* help, double v,
                                       bool deterministic) {
  Metric& m = slot_locked(name, MetricKind::kGauge, help, deterministic);
  if (v > m.gauge) m.gauge = v;
}

void MetricsRegistry::histogram_merge_locked(const std::string& name,
                                             const char* help,
                                             const LogHistogram& h,
                                             bool deterministic) {
  slot_locked(name, MetricKind::kHistogram, help, deterministic).hist.merge(h);
}

void MetricsRegistry::counter_add(const std::string& name, const char* help,
                                  std::uint64_t v, bool deterministic) {
  util::MutexLock lock{mu_};
  counter_add_locked(name, help, v, deterministic);
}

void MetricsRegistry::gauge_max(const std::string& name, const char* help,
                                double v, bool deterministic) {
  util::MutexLock lock{mu_};
  gauge_max_locked(name, help, v, deterministic);
}

void MetricsRegistry::histogram_merge(const std::string& name,
                                      const char* help, const LogHistogram& h,
                                      bool deterministic) {
  util::MutexLock lock{mu_};
  histogram_merge_locked(name, help, h, deterministic);
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  // Self-merge would deadlock on mu_ and is semantically a doubling the
  // callers never want; make it a no-op.
  if (&other == this) return;
  std::map<std::string, Metric> theirs;
  {
    util::MutexLock lock{other.mu_};
    theirs = other.metrics_;
  }
  util::MutexLock lock{mu_};
  for (const auto& [name, m] : theirs) {
    switch (m.kind) {
      case MetricKind::kCounter:
        counter_add_locked(name, m.help.c_str(), m.value, m.deterministic);
        break;
      case MetricKind::kGauge:
        gauge_max_locked(name, m.help.c_str(), m.gauge, m.deterministic);
        break;
      case MetricKind::kHistogram:
        histogram_merge_locked(name, m.help.c_str(), m.hist, m.deterministic);
        break;
    }
  }
}

const Metric* MetricsRegistry::find(const std::string& name) const {
  util::MutexLock lock{mu_};
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? nullptr : &it->second;
}

void MetricsRegistry::populate_from_run(const RunMetrics& m) {
  util::MutexLock lock{mu_};
  counter_add_locked("mcopt_restarts_total", "Multistart restarts folded in",
                     m.restarts, /*deterministic=*/true);
  counter_add_locked("mcopt_new_bests_total", "Best-so-far improvements",
                     m.new_bests, /*deterministic=*/true);
  counter_add_locked("mcopt_patience_resets_total",
                     "Step 4 reject counters reset by an accept",
                     m.patience_resets, /*deterministic=*/true);
  counter_add_locked("mcopt_trace_events_total",
                     "Trace events emitted post-sampling", m.trace_events,
                     /*deterministic=*/true);
  counter_add_locked("mcopt_invariant_checks_total",
                     "Deep invariant verifications", m.invariant_checks,
                     /*deterministic=*/true);
  gauge_max_locked("mcopt_invariant_seconds",
                   "Wall time inside check_invariants()", m.invariant_seconds,
                   /*deterministic=*/false);
  gauge_max_locked("mcopt_wall_seconds", "Wall time of the run(s)",
                   m.wall_seconds, /*deterministic=*/false);
  counter_add_locked("mcopt_worker_steals_total",
                     "Restarts claimed by pool workers (scheduler-dependent)",
                     m.worker_steals, /*deterministic=*/false);
  histogram_merge_locked("mcopt_uphill_delta_proposed",
                         "Cost increase of proposed uphill moves",
                         m.uphill_delta_proposed, /*deterministic=*/true);
  histogram_merge_locked("mcopt_uphill_delta_accepted",
                         "Cost increase of accepted uphill moves",
                         m.uphill_delta_accepted, /*deterministic=*/true);
  for (std::size_t i = 0; i < m.stages.size(); ++i) {
    const StageMetrics& s = m.stages[i];
    std::string label = "{stage=\"";
    append_u64(static_cast<std::uint64_t>(i), label);
    label += "\"}";
    counter_add_locked("mcopt_stage_proposals_total" + label,
                       "Proposals per temperature level", s.proposals,
                       /*deterministic=*/true);
    counter_add_locked("mcopt_stage_accepts_total" + label,
                       "Accepted proposals per temperature level", s.accepts,
                       /*deterministic=*/true);
    counter_add_locked("mcopt_stage_uphill_accepts_total" + label,
                       "Accepted cost-increasing proposals per level",
                       s.uphill_accepts, /*deterministic=*/true);
    counter_add_locked("mcopt_stage_rejects_total" + label,
                       "Rejected proposals per temperature level", s.rejects,
                       /*deterministic=*/true);
    counter_add_locked("mcopt_stage_downhill_proposals_total" + label,
                       "Proposals with negative cost delta",
                       s.downhill_proposals, /*deterministic=*/true);
    counter_add_locked("mcopt_stage_sideways_proposals_total" + label,
                       "Proposals with zero cost delta", s.sideways_proposals,
                       /*deterministic=*/true);
    counter_add_locked("mcopt_stage_uphill_proposals_total" + label,
                       "Proposals with positive cost delta",
                       s.uphill_proposals, /*deterministic=*/true);
    counter_add_locked("mcopt_stage_new_bests_total" + label,
                       "Best-so-far improvements per level", s.new_bests,
                       /*deterministic=*/true);
    counter_add_locked("mcopt_stage_patience_fires_total" + label,
                       "Step 4 advances out of this level", s.patience_fires,
                       /*deterministic=*/true);
    counter_add_locked("mcopt_stage_ticks_total" + label,
                       "Budget ticks charged per level", s.ticks,
                       /*deterministic=*/true);
    gauge_max_locked("mcopt_stage_wall_seconds" + label,
                     "Wall time per level (staged runners only)",
                     s.wall_seconds, /*deterministic=*/false);
    gauge_max_locked("mcopt_stage_acceptance_rate" + label,
                     "accepts / proposals per level", s.acceptance_rate(),
                     /*deterministic=*/true);
    gauge_max_locked("mcopt_stage_uphill_rate" + label,
                     "uphill accepts / uphill proposals per level (realized g)",
                     s.uphill_rate(), /*deterministic=*/true);
  }
  // Thermodynamic observables: derived from exact integer accumulators at
  // this call, so the exported doubles are a pure function of the seed and
  // safe to keep in the deterministic_only view.
  for (std::size_t i = 0; i < m.observables.size(); ++i) {
    const StageObservables& o = m.observables[i];
    std::string label = "{stage=\"";
    append_u64(static_cast<std::uint64_t>(i), label);
    label += "\"}";
    counter_add_locked("mcopt_stage_cost_samples_total" + label,
                       "Cost samples folded into the stage observables",
                       o.samples, /*deterministic=*/true);
    gauge_max_locked("mcopt_stage_cost_mean" + label,
                     "Mean chain cost (energy) per level", o.mean(),
                     /*deterministic=*/true);
    gauge_max_locked("mcopt_stage_cost_variance" + label,
                     "Chain cost variance per level", o.variance(),
                     /*deterministic=*/true);
    gauge_max_locked("mcopt_stage_temperature" + label,
                     "Boltzmann temperature Y_t (0 = non-thermal rule)",
                     o.temperature, /*deterministic=*/true);
    gauge_max_locked("mcopt_stage_specific_heat" + label,
                     "Var(E)/Y_t^2 — peaks at the freezing transition",
                     o.specific_heat(), /*deterministic=*/true);
    gauge_max_locked("mcopt_stage_autocorr_lag1" + label,
                     "Lag-1 cost autocorrelation per level",
                     o.autocorrelation(1), /*deterministic=*/true);
    counter_add_locked("mcopt_stage_equilibrated_total" + label,
                       "Runs whose drift detector flagged this level "
                       "equilibrated",
                       o.equilibrated_runs, /*deterministic=*/true);
  }
  // Hardware-counter attribution per profile scope.  Every family is a
  // measurement of the machine, so all are nondeterministic (excluded from
  // the bit-identity exports), and all are absent when perf_event_open was
  // unavailable — the counts then stay zero and nothing registers, which
  // is the graceful-degradation contract the tests pin.
  {
    std::vector<std::string> paths(m.profile.nodes.size());
    for (std::size_t i = 0; i < m.profile.nodes.size(); ++i) {
      const ProfileNode& node = m.profile.nodes[i];
      paths[i] = node.parent < 0
                     ? node.name
                     : paths[static_cast<std::size_t>(node.parent)] + "/" +
                           node.name;
      if (!node.perf.any()) continue;
      const std::string label = "{scope=\"" + paths[i] + "\"}";
      if (node.perf.cycles > 0) {
        counter_add_locked("mcopt_perf_cycles_total" + label,
                           "CPU cycles inside the profile scope "
                           "(perf_event, user space only)",
                           node.perf.cycles, /*deterministic=*/false);
      }
      if (node.perf.instructions > 0) {
        counter_add_locked("mcopt_perf_instructions_total" + label,
                           "Retired instructions inside the profile scope",
                           node.perf.instructions, /*deterministic=*/false);
      }
      if (node.perf.cache_refs > 0) {
        counter_add_locked("mcopt_perf_cache_references_total" + label,
                           "Cache references inside the profile scope",
                           node.perf.cache_refs, /*deterministic=*/false);
      }
      if (node.perf.cache_misses > 0) {
        counter_add_locked("mcopt_perf_cache_misses_total" + label,
                           "Cache misses inside the profile scope",
                           node.perf.cache_misses, /*deterministic=*/false);
      }
      if (node.perf.branch_misses > 0) {
        counter_add_locked("mcopt_perf_branch_misses_total" + label,
                           "Branch mispredictions inside the profile scope",
                           node.perf.branch_misses, /*deterministic=*/false);
      }
      if (node.perf.task_clock_ns > 0) {
        counter_add_locked("mcopt_perf_task_clock_ns_total" + label,
                           "Task-clock nanoseconds inside the profile scope",
                           node.perf.task_clock_ns, /*deterministic=*/false);
      }
      const double ipc = perf_ipc(node.perf);
      if (ipc > 0.0) {
        gauge_max_locked("mcopt_perf_ipc" + label,
                         "Instructions per cycle inside the profile scope",
                         ipc, /*deterministic=*/false);
      }
      if (node.perf.cache_refs > 0) {
        gauge_max_locked("mcopt_perf_cache_miss_rate" + label,
                         "cache misses / cache references per profile scope",
                         perf_cache_miss_rate(node.perf),
                         /*deterministic=*/false);
      }
      if (node.perf.cycles > 0 && node.ticks > 0) {
        gauge_max_locked("mcopt_perf_cycles_per_tick" + label,
                         "CPU cycles per budget tick (proposal) inside the "
                         "profile scope",
                         static_cast<double>(node.perf.cycles) /
                             static_cast<double>(node.ticks),
                         /*deterministic=*/false);
      }
    }
  }
}

std::string MetricsRegistry::to_prometheus(bool deterministic_only) const {
  util::MutexLock lock{mu_};
  std::string out;
  std::string last_family;
  for (const auto& [name, m] : metrics_) {
    if (deterministic_only && !m.deterministic) continue;
    const std::string family = base_name(name);
    const std::size_t brace = name.find('{');
    const std::string labels =
        brace == std::string::npos ? std::string() : name.substr(brace);
    if (family != last_family) {
      out += "# HELP ";
      out += family;
      out += " ";
      out += m.help;
      out += "\n# TYPE ";
      out += family;
      out += " ";
      out += kind_name(m.kind);
      out += "\n";
      last_family = family;
    }
    switch (m.kind) {
      case MetricKind::kCounter:
        out += name;
        out += " ";
        append_u64(m.value, out);
        out += "\n";
        break;
      case MetricKind::kGauge:
        out += name;
        out += " ";
        append_double(m.gauge, out);
        out += "\n";
        break;
      case MetricKind::kHistogram:
        append_prom_histogram(family, labels, m.hist, out);
        break;
    }
  }
  return out;
}

std::string MetricsRegistry::to_json(bool deterministic_only) const {
  util::MutexLock lock{mu_};
  std::string out = "{\n  \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (deterministic_only && !m.deterministic) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    out += name;
    out += "\": {\"type\": \"";
    out += kind_name(m.kind);
    out += "\", \"deterministic\": ";
    out += m.deterministic ? "true" : "false";
    out += ", ";
    switch (m.kind) {
      case MetricKind::kCounter:
        out += "\"value\": ";
        append_u64(m.value, out);
        break;
      case MetricKind::kGauge:
        out += "\"value\": ";
        append_double(m.gauge, out);
        break;
      case MetricKind::kHistogram:
        out += "\"value\": ";
        m.hist.append_json(out);
        break;
    }
    out += "}";
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

}  // namespace mcopt::obs
