#include "obs/registry.hpp"

#include <cstddef>
#include <map>
#include <string>

#include "obs/json_number.hpp"
#include "obs/metrics.hpp"

namespace mcopt::obs {

namespace {

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

using MetricMap = std::map<std::string, Metric>;

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

/// Adds the metric `family` + `label`, typed and described by its schema
/// entry.
Metric& add_metric(MetricMap& metrics, const Family& f,
                   const std::string& label, MetricKind kind) {
  Metric& m = metrics[f.name + label];
  m.kind = kind;
  m.help = f.help;
  m.deterministic = f.deterministic;
  return m;
}

void emit(MetricMap& metrics, CounterFamily family, const std::string& label,
          std::uint64_t v) {
  add_metric(metrics, kCounterFamilies[static_cast<std::size_t>(family)],
             label, MetricKind::kCounter)
      .value = v;
}

void emit(MetricMap& metrics, GaugeFamily family, const std::string& label,
          double v) {
  add_metric(metrics, kGaugeFamilies[static_cast<std::size_t>(family)], label,
             MetricKind::kGauge)
      .gauge = v;
}

void emit(MetricMap& metrics, HistogramFamily family,
          const std::string& label, const LogHistogram& h) {
  add_metric(metrics, kHistogramFamilies[static_cast<std::size_t>(family)],
             label, MetricKind::kHistogram)
      .hist = h;
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

const Metric* MetricsRegistry::find(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? nullptr : &it->second;
}

void MetricsRegistry::populate_from_run(const RunMetrics& m) {
  using C = CounterFamily;
  using G = GaugeFamily;
  using H = HistogramFamily;
  metrics_.clear();
  const std::string unlabeled;
  emit(metrics_, C::kRestarts, unlabeled, m.restarts);
  emit(metrics_, C::kNewBests, unlabeled, m.new_bests);
  emit(metrics_, C::kPatienceResets, unlabeled, m.patience_resets);
  emit(metrics_, C::kTraceEvents, unlabeled, m.trace_events);
  emit(metrics_, C::kInvariantChecks, unlabeled, m.invariant_checks);
  emit(metrics_, G::kInvariantSeconds, unlabeled, m.invariant_seconds);
  emit(metrics_, G::kWallSeconds, unlabeled, m.wall_seconds);
  emit(metrics_, C::kWorkerSteals, unlabeled, m.worker_steals);
  emit(metrics_, H::kUphillDeltaProposed, unlabeled, m.uphill_delta_proposed);
  emit(metrics_, H::kUphillDeltaAccepted, unlabeled, m.uphill_delta_accepted);
  for (std::size_t i = 0; i < m.stages.size(); ++i) {
    const StageMetrics& s = m.stages[i];
    const std::string label = "{stage=\"" + std::to_string(i) + "\"}";
    emit(metrics_, C::kStageProposals, label, s.proposals);
    emit(metrics_, C::kStageAccepts, label, s.accepts);
    emit(metrics_, C::kStageUphillAccepts, label, s.uphill_accepts);
    emit(metrics_, C::kStageRejects, label, s.rejects);
    emit(metrics_, C::kStageDownhillProposals, label, s.downhill_proposals);
    emit(metrics_, C::kStageSidewaysProposals, label, s.sideways_proposals);
    emit(metrics_, C::kStageUphillProposals, label, s.uphill_proposals);
    emit(metrics_, C::kStageNewBests, label, s.new_bests);
    emit(metrics_, C::kStagePatienceFires, label, s.patience_fires);
    emit(metrics_, C::kStageTicks, label, s.ticks);
    emit(metrics_, G::kStageWallSeconds, label, s.wall_seconds);
    emit(metrics_, G::kStageAcceptanceRate, label, s.acceptance_rate());
    emit(metrics_, G::kStageUphillRate, label, s.uphill_rate());
  }
  for (std::size_t i = 0; i < m.observables.size(); ++i) {
    const StageObservables& o = m.observables[i];
    const std::string label = "{stage=\"" + std::to_string(i) + "\"}";
    emit(metrics_, C::kStageCostSamples, label, o.samples);
    emit(metrics_, G::kStageCostMean, label, o.mean());
    emit(metrics_, G::kStageCostVariance, label, o.variance());
    emit(metrics_, G::kStageTemperature, label, o.temperature);
    emit(metrics_, G::kStageSpecificHeat, label, o.specific_heat());
    emit(metrics_, G::kStageAutocorrLag1, label, o.autocorrelation(1));
    emit(metrics_, C::kStageEquilibrated, label, o.equilibrated_runs);
  }
}

std::string MetricsRegistry::to_prometheus(bool deterministic_only) const {
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
