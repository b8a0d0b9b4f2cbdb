// What is left of the metrics registry: a shim for the one caller that
// cannot move yet.  The run report is RunMetrics::to_json() (the bench
// drivers' --report-out), and tools/mcopt_report.py renders its Prometheus
// text from the families in obs/schema.def.
//
// benchmark/workloads.cpp (the table41_observed workload) still compiles
// against `MetricsRegistry{}.populate_from_run(m)` and `.to_json()`; that
// directory changes only in a benchmark PR, so the shim goes there, with
// ROADMAP item 8.
#pragma once

#include <string>

#include "obs/metrics.hpp"

namespace mcopt::obs {

class MetricsRegistry {
 public:
  void populate_from_run(const RunMetrics& m) { json_ = m.to_json(); }
  [[nodiscard]] const std::string& to_json() const noexcept { return json_; }

 private:
  std::string json_;
};

}  // namespace mcopt::obs
