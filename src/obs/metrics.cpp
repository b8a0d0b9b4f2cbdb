#include "obs/metrics.hpp"

#include <cstdio>

#include "obs/json_number.hpp"

namespace mcopt::obs {

namespace {

void append_field(const char* key, std::uint64_t value, const char* indent,
                  std::string& out, bool comma = true) {
  out += indent;
  out += "\"";
  out += key;
  out += "\": ";
  append_u64(value, out);
  out += comma ? ",\n" : "\n";
}

void append_field(const char* key, double value, const char* indent,
                  std::string& out, bool comma = true) {
  out += indent;
  out += "\"";
  out += key;
  out += "\": ";
  append_double(value, out);
  out += comma ? ",\n" : "\n";
}

}  // namespace

StageMetrics& StageMetrics::operator+=(const StageMetrics& other) noexcept {
  proposals += other.proposals;
  accepts += other.accepts;
  uphill_accepts += other.uphill_accepts;
  rejects += other.rejects;
  downhill_proposals += other.downhill_proposals;
  sideways_proposals += other.sideways_proposals;
  uphill_proposals += other.uphill_proposals;
  new_bests += other.new_bests;
  patience_fires += other.patience_fires;
  ticks += other.ticks;
  wall_seconds += other.wall_seconds;
  return *this;
}

void RunMetrics::merge(const RunMetrics& other) {
  if (!other.collected) return;
  collected = true;
  restarts += other.restarts;
  new_bests += other.new_bests;
  patience_resets += other.patience_resets;
  trace_events += other.trace_events;
  invariant_checks += other.invariant_checks;
  invariant_seconds += other.invariant_seconds;
  wall_seconds += other.wall_seconds;
  worker_steals += other.worker_steals;
  uphill_delta_proposed.merge(other.uphill_delta_proposed);
  uphill_delta_accepted.merge(other.uphill_delta_accepted);
  profile.merge(other.profile);
  if (stages.size() < other.stages.size()) stages.resize(other.stages.size());
  for (std::size_t i = 0; i < other.stages.size(); ++i) {
    stages[i] += other.stages[i];
  }
  if (observables.size() < other.observables.size()) {
    observables.resize(other.observables.size());
  }
  for (std::size_t i = 0; i < other.observables.size(); ++i) {
    observables[i].merge(other.observables[i]);
  }
}

std::string RunMetrics::to_json() const {
  std::string out;
  out += "{\n";
  out += "  \"collected\": ";
  out += collected ? "true" : "false";
  out += ",\n";
  append_field("restarts", restarts, "  ", out);
  append_field("new_bests", new_bests, "  ", out);
  append_field("patience_resets", patience_resets, "  ", out);
  append_field("trace_events", trace_events, "  ", out);
  append_field("invariant_checks", invariant_checks, "  ", out);
  append_field("invariant_seconds", invariant_seconds, "  ", out);
  append_field("worker_steals", worker_steals, "  ", out);
  append_field("wall_seconds", wall_seconds, "  ", out);
  out += "  \"uphill_delta_proposed\": ";
  uphill_delta_proposed.append_json(out);
  out += ",\n  \"uphill_delta_accepted\": ";
  uphill_delta_accepted.append_json(out);
  out += ",\n";
  out += "  \"stages\": [";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const StageMetrics& s = stages[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\n";
    append_field("stage", static_cast<std::uint64_t>(i), "      ", out);
    append_field("proposals", s.proposals, "      ", out);
    append_field("accepts", s.accepts, "      ", out);
    append_field("uphill_accepts", s.uphill_accepts, "      ", out);
    append_field("rejects", s.rejects, "      ", out);
    append_field("downhill_proposals", s.downhill_proposals, "      ", out);
    append_field("sideways_proposals", s.sideways_proposals, "      ", out);
    append_field("uphill_proposals", s.uphill_proposals, "      ", out);
    append_field("new_bests", s.new_bests, "      ", out);
    append_field("patience_fires", s.patience_fires, "      ", out);
    append_field("ticks", s.ticks, "      ", out);
    append_field("acceptance_rate", s.acceptance_rate(), "      ", out);
    append_field("uphill_rate", s.uphill_rate(), "      ", out);
    append_field("wall_seconds", s.wall_seconds, "      ", out, false);
    out += "    }";
  }
  out += stages.empty() ? "],\n" : "\n  ],\n";
  // Observables export only merge-stable values: exact counters and the
  // doubles derived from them at this call.  Transient detector state
  // (ring, window sums) depends on which shard last wrote it and must
  // never leak into the JSON, or shard grouping would become observable.
  out += "  \"observables\": [";
  for (std::size_t i = 0; i < observables.size(); ++i) {
    const StageObservables& o = observables[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\n";
    append_field("stage", static_cast<std::uint64_t>(i), "      ", out);
    append_field("samples", o.samples, "      ", out);
    append_field("cost_mean", o.mean(), "      ", out);
    append_field("cost_variance", o.variance(), "      ", out);
    append_field("temperature", o.temperature, "      ", out);
    append_field("specific_heat", o.specific_heat(), "      ", out);
    out += "      \"autocorrelation\": [";
    for (std::size_t lag = 1; lag <= StageObservables::kMaxLag; ++lag) {
      if (lag > 1) out += ", ";
      append_double(o.autocorrelation(lag), out);
    }
    out += "],\n";
    append_field("windows", o.windows, "      ", out);
    append_field("equilibrated_runs", o.equilibrated_runs, "      ", out);
    append_field("first_equilibrated_sample", o.first_equilibrated_sample,
                 "      ", out, false);
    out += "    }";
  }
  out += observables.empty() ? "],\n" : "\n  ],\n";
  out += "  \"profile\": ";
  out += profile.to_json();
  out += "\n}\n";
  return out;
}

std::string RunMetrics::summary() const {
  std::uint64_t proposals = 0;
  std::uint64_t accepts = 0;
  for (const StageMetrics& s : stages) {
    proposals += s.proposals;
    accepts += s.accepts;
  }
  std::string out = "metrics: ";
  if (!collected) {
    out += "not collected";
    return out;
  }
  out += "restarts=";
  append_u64(restarts, out);
  out += " stages=";
  append_u64(static_cast<std::uint64_t>(stages.size()), out);
  out += " proposals=";
  append_u64(proposals, out);
  out += " accepts=";
  append_u64(accepts, out);
  out += " new_bests=";
  append_u64(new_bests, out);
  out += " patience_resets=";
  append_u64(patience_resets, out);
  out += " trace_events=";
  append_u64(trace_events, out);
  char buf[64];
  const int n = std::snprintf(buf, sizeof buf, " invariant_s=%.3f wall_s=%.3f",
                              invariant_seconds, wall_seconds);
  out.append(buf, static_cast<std::size_t>(n > 0 ? n : 0));
  return out;
}

}  // namespace mcopt::obs
