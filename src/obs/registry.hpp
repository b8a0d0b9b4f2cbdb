// Metrics registry with Prometheus and JSON exporters.
//
// RunMetrics is the per-run shard that rides the engines' index-ordered
// merges; MetricsRegistry is the *presentation* layer a driver fills once
// at the end from the merged RunMetrics (populate_from_run) and then
// exports.  It flattens the run into named metric families:
//
//   counter    u64
//   gauge      double (wall clocks, rates, observables)
//   histogram  LogHistogram
//
// Determinism contract: metrics observing the scheduler or the clock are
// registered with `deterministic = false` and both exporters can filter
// them (`deterministic_only = true`), which is what the thread-count
// invariance tests compare byte-for-byte — the same carve-out the trace
// layer makes for the `worker` stamp.  Keys live in a sorted std::map, so
// export order never depends on insertion order.
//
// Prometheus naming: per-stage samples encode the label in the key
// (`family{stage="3"}`); families sharing a base name sort adjacently, so
// HELP/TYPE headers are emitted once per family as the text exposition
// format requires.
//
// Family names, TYPEs, HELP texts and determinism flags of the standard
// families come from obs/schema.def.
//
// A registry has one writer and takes no lock: a driver builds it on one
// thread, from a RunMetrics already merged across workers, and exports it
// there.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "obs/histogram.hpp"

namespace mcopt::obs {

struct RunMetrics;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

struct Metric {
  MetricKind kind = MetricKind::kCounter;
  std::string help;
  bool deterministic = true;
  // Only the field of `kind` is set.
  std::uint64_t value = 0;    ///< counters
  double gauge = 0.0;         ///< gauges
  LogHistogram hist;          ///< histograms
};

class MetricsRegistry {
 public:
  /// Replaces the registry's contents with the standard mcopt_* families
  /// flattened from a merged RunMetrics.
  void populate_from_run(const RunMetrics& m);

  [[nodiscard]] bool empty() const noexcept { return metrics_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return metrics_.size(); }
  /// Looks up a metric; null when absent.
  [[nodiscard]] const Metric* find(const std::string& name) const;

  /// Prometheus text exposition format (one HELP/TYPE header per family).
  /// `deterministic_only` drops metrics registered as nondeterministic —
  /// the form compared byte-for-byte across thread counts.
  [[nodiscard]] std::string to_prometheus(
      bool deterministic_only = false) const;

  /// Stable JSON object {"metrics": {name: {...}, ...}} in sorted key
  /// order, same `deterministic_only` filter as to_prometheus().
  [[nodiscard]] std::string to_json(bool deterministic_only = false) const;

 private:
  std::map<std::string, Metric> metrics_;
};

}  // namespace mcopt::obs
