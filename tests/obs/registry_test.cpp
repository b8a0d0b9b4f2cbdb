// MetricsRegistry: RunMetrics flattening and the two exporters
// (Prometheus text exposition, stable JSON).
#include "obs/registry.hpp"

#include <cstddef>
#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.hpp"

namespace mcopt::obs {
namespace {

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

  // A second run replaces the first: nothing sums, and no stage of the
  // first run survives.
  RunMetrics second;
  second.collected = true;
  second.restarts = 1;
  second.stages.resize(1);
  reg.populate_from_run(second);
  EXPECT_EQ(reg.find("mcopt_restarts_total")->value, 1u);
  EXPECT_EQ(reg.find("mcopt_stage_proposals_total{stage=\"1\"}"), nullptr);
  EXPECT_EQ(reg.find("mcopt_uphill_delta_proposed")->hist.count(), 0u);
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
  RunMetrics m;
  m.collected = true;
  m.uphill_delta_proposed.record(1.0);
  m.uphill_delta_proposed.record(3.0);
  MetricsRegistry reg;
  reg.populate_from_run(m);
  const std::string prom = reg.to_prometheus();
  const std::string h = "mcopt_uphill_delta_proposed";
  EXPECT_NE(prom.find("# TYPE " + h + " histogram\n"), std::string::npos);
  EXPECT_NE(prom.find(h + "_bucket{le=\"2\"} 1\n"), std::string::npos);
  EXPECT_NE(prom.find(h + "_bucket{le=\"4\"} 2\n"), std::string::npos);
  EXPECT_NE(prom.find(h + "_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
  EXPECT_NE(prom.find(h + "_sum 4\n"), std::string::npos);
  EXPECT_NE(prom.find(h + "_count 2\n"), std::string::npos);
}

TEST(RegistryTest, DeterministicOnlyFilterDropsFlaggedMetrics) {
  RunMetrics m;
  m.collected = true;
  m.restarts = 1;
  m.wall_seconds = 1.5;  // a clock: outside the determinism contract
  MetricsRegistry reg;
  reg.populate_from_run(m);
  const std::string all = reg.to_prometheus();
  const std::string det = reg.to_prometheus(/*deterministic_only=*/true);
  EXPECT_NE(all.find("mcopt_wall_seconds"), std::string::npos);
  EXPECT_EQ(det.find("mcopt_wall_seconds"), std::string::npos);
  EXPECT_NE(det.find("mcopt_restarts_total"), std::string::npos);

  const std::string json = reg.to_json(/*deterministic_only=*/true);
  EXPECT_EQ(json.find("mcopt_wall_seconds"), std::string::npos);
  EXPECT_NE(json.find("mcopt_restarts_total"), std::string::npos);
}

TEST(RegistryTest, JsonExportIsSortedAndTyped) {
  RunMetrics m;
  m.collected = true;
  m.restarts = 2;
  m.invariant_checks = 1;
  m.wall_seconds = 1.5;
  MetricsRegistry reg;
  reg.populate_from_run(m);
  const std::string json = reg.to_json();
  // populate_from_run emits restarts before invariant checks; the export
  // sorts by name.
  const std::size_t a = json.find("\"mcopt_invariant_checks_total\": {");
  const std::size_t r = json.find("\"mcopt_restarts_total\": {");
  const std::size_t w = json.find("\"mcopt_wall_seconds\": {");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(r, std::string::npos);
  ASSERT_NE(w, std::string::npos);
  EXPECT_LT(a, r);
  EXPECT_LT(r, w);
  EXPECT_NE(json.find("\"mcopt_restarts_total\": {\"type\": \"counter\""),
            std::string::npos);
  EXPECT_NE(json.find("\"mcopt_wall_seconds\": {\"type\": \"gauge\""),
            std::string::npos);
}

}  // namespace
}  // namespace mcopt::obs
