#include "obs/registry.hpp"

#include <cstddef>

#include "obs/json_number.hpp"
#include "obs/metrics.hpp"

namespace mcopt::obs {

// The families of obs/schema.def, one enumerator per entry, and
// (below) one table row per entry.
enum class CounterFamily : std::uint8_t {
#define MCOPT_COUNTER(id, family, deterministic, help) id,
#include "obs/schema.def"
};
enum class GaugeFamily : std::uint8_t {
#define MCOPT_GAUGE(id, family, deterministic, help) id,
#include "obs/schema.def"
};
enum class HistogramFamily : std::uint8_t {
#define MCOPT_HISTOGRAM(id, family, deterministic, help) id,
#include "obs/schema.def"
};

namespace {

/// `family{label="x"}` -> `family`; plain names pass through.
std::string base_name(const std::string& name) {
  const std::size_t brace = name.find('{');
  return brace == std::string::npos ? name : name.substr(0, brace);
}

/// One Prometheus family of obs/schema.def: its name, determinism flag and
/// HELP text.
struct Family {
  const char* name;
  bool deterministic;
  const char* help;
};

#define MCOPT_FAMILY_ROW(id, family, deterministic, help) \
  {family, deterministic, help},
constexpr Family kCounterFamilies[] = {
#define MCOPT_COUNTER MCOPT_FAMILY_ROW
#include "obs/schema.def"
};
constexpr Family kGaugeFamilies[] = {
#define MCOPT_GAUGE MCOPT_FAMILY_ROW
#include "obs/schema.def"
};
constexpr Family kHistogramFamilies[] = {
#define MCOPT_HISTOGRAM MCOPT_FAMILY_ROW
#include "obs/schema.def"
};
#undef MCOPT_FAMILY_ROW

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

void MetricsRegistry::emit_locked(CounterFamily family,
                                  const std::string& label, std::uint64_t v) {
  const Family& f = kCounterFamilies[static_cast<std::size_t>(family)];
  counter_add_locked(f.name + label, f.help, v, f.deterministic);
}

void MetricsRegistry::emit_locked(GaugeFamily family, const std::string& label,
                                  double v) {
  const Family& f = kGaugeFamilies[static_cast<std::size_t>(family)];
  gauge_max_locked(f.name + label, f.help, v, f.deterministic);
}

void MetricsRegistry::emit_locked(HistogramFamily family,
                                  const std::string& label,
                                  const LogHistogram& h) {
  const Family& f = kHistogramFamilies[static_cast<std::size_t>(family)];
  histogram_merge_locked(f.name + label, f.help, h, f.deterministic);
}

void MetricsRegistry::populate_from_run(const RunMetrics& m) {
  using C = CounterFamily;
  using G = GaugeFamily;
  using H = HistogramFamily;
  util::MutexLock lock{mu_};
  const std::string unlabeled;
  emit_locked(C::kRestarts, unlabeled, m.restarts);
  emit_locked(C::kNewBests, unlabeled, m.new_bests);
  emit_locked(C::kPatienceResets, unlabeled, m.patience_resets);
  emit_locked(C::kTraceEvents, unlabeled, m.trace_events);
  emit_locked(C::kInvariantChecks, unlabeled, m.invariant_checks);
  emit_locked(G::kInvariantSeconds, unlabeled, m.invariant_seconds);
  emit_locked(G::kWallSeconds, unlabeled, m.wall_seconds);
  emit_locked(C::kWorkerSteals, unlabeled, m.worker_steals);
  emit_locked(H::kUphillDeltaProposed, unlabeled, m.uphill_delta_proposed);
  emit_locked(H::kUphillDeltaAccepted, unlabeled, m.uphill_delta_accepted);
  for (std::size_t i = 0; i < m.stages.size(); ++i) {
    const StageMetrics& s = m.stages[i];
    const std::string label = "{stage=\"" + std::to_string(i) + "\"}";
    emit_locked(C::kStageProposals, label, s.proposals);
    emit_locked(C::kStageAccepts, label, s.accepts);
    emit_locked(C::kStageUphillAccepts, label, s.uphill_accepts);
    emit_locked(C::kStageRejects, label, s.rejects);
    emit_locked(C::kStageDownhillProposals, label, s.downhill_proposals);
    emit_locked(C::kStageSidewaysProposals, label, s.sideways_proposals);
    emit_locked(C::kStageUphillProposals, label, s.uphill_proposals);
    emit_locked(C::kStageNewBests, label, s.new_bests);
    emit_locked(C::kStagePatienceFires, label, s.patience_fires);
    emit_locked(C::kStageTicks, label, s.ticks);
    emit_locked(G::kStageWallSeconds, label, s.wall_seconds);
    emit_locked(G::kStageAcceptanceRate, label, s.acceptance_rate());
    emit_locked(G::kStageUphillRate, label, s.uphill_rate());
  }
  for (std::size_t i = 0; i < m.observables.size(); ++i) {
    const StageObservables& o = m.observables[i];
    const std::string label = "{stage=\"" + std::to_string(i) + "\"}";
    emit_locked(C::kStageCostSamples, label, o.samples);
    emit_locked(G::kStageCostMean, label, o.mean());
    emit_locked(G::kStageCostVariance, label, o.variance());
    emit_locked(G::kStageTemperature, label, o.temperature);
    emit_locked(G::kStageSpecificHeat, label, o.specific_heat());
    emit_locked(G::kStageAutocorrLag1, label, o.autocorrelation(1));
    emit_locked(C::kStageEquilibrated, label, o.equilibrated_runs);
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
