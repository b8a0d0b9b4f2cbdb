// Aggregated metrics registry with Prometheus and JSON exporters.
//
// RunMetrics is the per-run shard that rides the engines' index-ordered
// merges; MetricsRegistry is the *presentation* layer a driver populates
// once at the end from the merged RunMetrics (populate_from_run) plus any
// driver-level extras (counter_add / gauge_max / histogram_merge).  It
// flattens everything into named metric families:
//
//   counter    u64, merges by sum       (deterministic by default)
//   gauge      double, merges by max    (wall clocks, peaks)
//   histogram  LogHistogram, bucket sum (commutative, order-invariant)
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
// Thread-safety: a registry may be populated and merged from concurrent
// threads.  All state is guarded by one util::Mutex; the public methods
// lock once and delegate to REQUIRES-annotated *_locked() helpers, so the
// locking structure is visible in the signatures and enforced by the
// thread-safety build.
// Determinism is unaffected: counters sum, gauges max, and histogram
// buckets add commutatively, so any interleaving of whole operations
// yields the same exports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>

#include "obs/histogram.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace mcopt::obs {

struct RunMetrics;
// The standard families, one enumerator per obs/schema.def entry (defined
// in registry.cpp).
enum class CounterFamily : std::uint8_t;
enum class GaugeFamily : std::uint8_t;
enum class HistogramFamily : std::uint8_t;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

struct Metric {
  MetricKind kind = MetricKind::kCounter;
  std::string help;
  bool deterministic = true;
  std::uint64_t value = 0;    ///< counters
  /// Gauges max-merge, so the empty value is the max identity — not 0.0,
  /// which would silently clamp negative-valued gauges (autocorrelation
  /// can be negative).  A gauge only exists once a setter ran, so the
  /// identity itself is never exported.
  double gauge = std::numeric_limits<double>::lowest();  ///< gauges
  LogHistogram hist;          ///< histograms
};

class MetricsRegistry {
 public:
  /// Adds `v` to counter `name`, creating it on first use.  `name` may
  /// carry a Prometheus label suffix: `family{label="x"}`.
  void counter_add(const std::string& name, const char* help,
                   std::uint64_t v, bool deterministic = true) EXCLUDES(mu_);

  /// Raises gauge `name` to `v` if larger (max-merge semantics).
  void gauge_max(const std::string& name, const char* help, double v,
                 bool deterministic = true) EXCLUDES(mu_);

  /// Merges `h` into histogram `name` (commutative bucket sums).
  void histogram_merge(const std::string& name, const char* help,
                       const LogHistogram& h, bool deterministic = true)
      EXCLUDES(mu_);

  /// Folds another registry in (sum / max / bucket-sum by kind).  Snapshots
  /// `other` under its own lock first, then folds under ours — two
  /// registries merging each other concurrently cannot deadlock because
  /// the locks are never held together.
  void merge(const MetricsRegistry& other) EXCLUDES(mu_);

  /// Flattens a merged RunMetrics into the standard mcopt_* families.
  /// One lock acquisition for the whole flatten, not one per family.
  void populate_from_run(const RunMetrics& m) EXCLUDES(mu_);

  [[nodiscard]] bool empty() const EXCLUDES(mu_) {
    util::MutexLock lock{mu_};
    return metrics_.empty();
  }
  [[nodiscard]] std::size_t size() const EXCLUDES(mu_) {
    util::MutexLock lock{mu_};
    return metrics_.size();
  }
  /// Looks up a metric; the returned pointer stays valid (map nodes are
  /// stable) but its fields are only stable once concurrent writers are
  /// done — read results after joining, as the tests and drivers do.
  [[nodiscard]] const Metric* find(const std::string& name) const
      EXCLUDES(mu_);

  /// Prometheus text exposition format (one HELP/TYPE header per family).
  /// `deterministic_only` drops metrics registered as nondeterministic —
  /// the form compared byte-for-byte across thread counts.
  [[nodiscard]] std::string to_prometheus(bool deterministic_only = false) const
      EXCLUDES(mu_);

  /// Stable JSON object {"metrics": {name: {...}, ...}} in sorted key
  /// order, same `deterministic_only` filter as to_prometheus().
  [[nodiscard]] std::string to_json(bool deterministic_only = false) const
      EXCLUDES(mu_);

 private:
  Metric& slot_locked(const std::string& name, MetricKind kind,
                      const char* help, bool deterministic) REQUIRES(mu_);
  void counter_add_locked(const std::string& name, const char* help,
                          std::uint64_t v, bool deterministic) REQUIRES(mu_);
  void gauge_max_locked(const std::string& name, const char* help, double v,
                        bool deterministic) REQUIRES(mu_);
  void histogram_merge_locked(const std::string& name, const char* help,
                              const LogHistogram& h, bool deterministic)
      REQUIRES(mu_);

  /// One sample `family` + `label` of a standard family, with the HELP
  /// text and determinism flag of its schema entry.
  void emit_locked(CounterFamily family, const std::string& label,
                   std::uint64_t v) REQUIRES(mu_);
  void emit_locked(GaugeFamily family, const std::string& label, double v)
      REQUIRES(mu_);
  void emit_locked(HistogramFamily family, const std::string& label,
                   const LogHistogram& h) REQUIRES(mu_);

  mutable util::Mutex mu_;
  std::map<std::string, Metric> metrics_ GUARDED_BY(mu_);
};

}  // namespace mcopt::obs
