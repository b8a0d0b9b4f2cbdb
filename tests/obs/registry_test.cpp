// MetricsRegistry: merge semantics, RunMetrics flattening, and the two
// exporters (Prometheus text exposition, stable JSON).
#include "obs/registry.hpp"

#include <cstddef>
#include <gtest/gtest.h>

#include <string>

#include "obs/histogram.hpp"
#include "obs/metrics.hpp"

namespace mcopt::obs {
namespace {

TEST(RegistryTest, CounterSumsGaugeMaxesHistogramMerges) {
  MetricsRegistry reg;
  reg.counter_add("mcopt_x_total", "x", 3);
  reg.counter_add("mcopt_x_total", "x", 4);
  reg.gauge_max("mcopt_peak", "p", 2.0);
  reg.gauge_max("mcopt_peak", "p", 1.0);  // lower: ignored
  LogHistogram h;
  h.record(3.0);
  reg.histogram_merge("mcopt_h", "h", h);
  reg.histogram_merge("mcopt_h", "h", h);

  const Metric* counter = reg.find("mcopt_x_total");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->value, 7u);
  const Metric* gauge = reg.find("mcopt_peak");
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->gauge, 2.0);
  const Metric* hist = reg.find("mcopt_h");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->hist.count(), 2u);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(RegistryTest, RegistryMergeFollowsKindSemantics) {
  MetricsRegistry a;
  a.counter_add("mcopt_x_total", "x", 3);
  a.gauge_max("mcopt_peak", "p", 2.0);
  MetricsRegistry b;
  b.counter_add("mcopt_x_total", "x", 10);
  b.gauge_max("mcopt_peak", "p", 5.0);
  b.counter_add("mcopt_only_b_total", "b", 1);

  a.merge(b);
  EXPECT_EQ(a.find("mcopt_x_total")->value, 13u);
  EXPECT_DOUBLE_EQ(a.find("mcopt_peak")->gauge, 5.0);
  EXPECT_EQ(a.find("mcopt_only_b_total")->value, 1u);
}

TEST(RegistryTest, PopulateFromRunFlattensStagesWithLabels) {
  RunMetrics m;
  m.collected = true;
  m.restarts = 4;
  m.new_bests = 2;
  m.stages.resize(2);
  m.stages[1].proposals = 100;
  m.stages[1].accepts = 25;
  m.stages[1].uphill_proposals = 60;
  m.uphill_delta_proposed.record(8.0);

  MetricsRegistry reg;
  reg.populate_from_run(m);
  EXPECT_EQ(reg.find("mcopt_restarts_total")->value, 4u);
  const Metric* labeled = reg.find("mcopt_stage_proposals_total{stage=\"1\"}");
  ASSERT_NE(labeled, nullptr);
  EXPECT_EQ(labeled->value, 100u);
  EXPECT_EQ(
      reg.find("mcopt_stage_uphill_proposals_total{stage=\"1\"}")->value,
      60u);
  const Metric* hist = reg.find("mcopt_uphill_delta_proposed");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->hist.count(), 1u);
  // Wall/scheduler observers are flagged out of the determinism contract.
  EXPECT_FALSE(reg.find("mcopt_wall_seconds")->deterministic);
  EXPECT_FALSE(reg.find("mcopt_worker_steals_total")->deterministic);
  EXPECT_TRUE(reg.find("mcopt_restarts_total")->deterministic);
}

TEST(RegistryTest, PrometheusEmitsOneHeaderPerFamily) {
  RunMetrics m;
  m.collected = true;
  m.stages.resize(3);
  for (auto& s : m.stages) s.proposals = 10;
  MetricsRegistry reg;
  reg.populate_from_run(m);
  const std::string prom = reg.to_prometheus();

  // Three labeled samples, one HELP/TYPE pair for the family.
  std::size_t headers = 0;
  std::size_t samples = 0;
  for (std::size_t pos = 0;
       (pos = prom.find("mcopt_stage_proposals_total", pos)) !=
       std::string::npos;
       ++pos) {
    const bool header = pos >= 7 && (prom.compare(pos - 7, 7, "# HELP ") == 0 ||
                                     prom.compare(pos - 7, 7, "# TYPE ") == 0);
    (header ? headers : samples) += 1;
  }
  EXPECT_EQ(headers, 2u);
  EXPECT_EQ(samples, 3u);
  EXPECT_NE(prom.find("mcopt_stage_proposals_total{stage=\"2\"} 10\n"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE mcopt_stage_proposals_total counter\n"),
            std::string::npos);
}

TEST(RegistryTest, PrometheusHistogramCarriesBucketSumCount) {
  MetricsRegistry reg;
  LogHistogram h;
  h.record(1.0);
  h.record(3.0);
  reg.histogram_merge("mcopt_h", "deltas", h);
  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("# TYPE mcopt_h histogram\n"), std::string::npos);
  EXPECT_NE(prom.find("mcopt_h_bucket{le=\"2\"} 1\n"), std::string::npos);
  EXPECT_NE(prom.find("mcopt_h_bucket{le=\"4\"} 2\n"), std::string::npos);
  EXPECT_NE(prom.find("mcopt_h_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
  EXPECT_NE(prom.find("mcopt_h_sum 4\n"), std::string::npos);
  EXPECT_NE(prom.find("mcopt_h_count 2\n"), std::string::npos);
}

TEST(RegistryTest, DeterministicOnlyFilterDropsFlaggedMetrics) {
  MetricsRegistry reg;
  reg.counter_add("mcopt_det_total", "d", 1);
  reg.counter_add("mcopt_wall_total", "w", 1, /*deterministic=*/false);
  const std::string all = reg.to_prometheus();
  const std::string det = reg.to_prometheus(/*deterministic_only=*/true);
  EXPECT_NE(all.find("mcopt_wall_total"), std::string::npos);
  EXPECT_EQ(det.find("mcopt_wall_total"), std::string::npos);
  EXPECT_NE(det.find("mcopt_det_total"), std::string::npos);

  const std::string json = reg.to_json(/*deterministic_only=*/true);
  EXPECT_EQ(json.find("mcopt_wall_total"), std::string::npos);
  EXPECT_NE(json.find("mcopt_det_total"), std::string::npos);
}

TEST(RegistryTest, JsonExportIsSortedAndTyped) {
  MetricsRegistry reg;
  reg.counter_add("mcopt_z_total", "z", 1);
  reg.counter_add("mcopt_a_total", "a", 2);
  reg.gauge_max("mcopt_m_gauge", "m", 1.5);
  const std::string json = reg.to_json();
  const std::size_t a = json.find("mcopt_a_total");
  const std::size_t m = json.find("mcopt_m_gauge");
  const std::size_t z = json.find("mcopt_z_total");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(m, std::string::npos);
  ASSERT_NE(z, std::string::npos);
  EXPECT_LT(a, m);
  EXPECT_LT(m, z);
  EXPECT_NE(json.find("\"type\": \"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"gauge\""), std::string::npos);
}

}  // namespace
}  // namespace mcopt::obs
