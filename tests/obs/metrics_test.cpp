// RunMetrics / StageMetrics accumulation and serialization.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>
#include <string>

namespace mcopt::obs {
namespace {

TEST(StageMetricsTest, AccumulatesElementWise) {
  StageMetrics a;
  a.proposals = 10;
  a.accepts = 4;
  a.uphill_accepts = 1;
  a.rejects = 6;
  a.ticks = 10;
  StageMetrics b;
  b.proposals = 5;
  b.accepts = 5;
  b.new_bests = 2;
  b.patience_fires = 1;
  a += b;
  EXPECT_EQ(a.proposals, 15u);
  EXPECT_EQ(a.accepts, 9u);
  EXPECT_EQ(a.uphill_accepts, 1u);
  EXPECT_EQ(a.rejects, 6u);
  EXPECT_EQ(a.new_bests, 2u);
  EXPECT_EQ(a.patience_fires, 1u);
  EXPECT_EQ(a.ticks, 10u);
}

TEST(StageMetricsTest, AcceptanceRate) {
  StageMetrics m;
  EXPECT_EQ(m.acceptance_rate(), 0.0);
  m.proposals = 8;
  m.accepts = 2;
  EXPECT_DOUBLE_EQ(m.acceptance_rate(), 0.25);
}

TEST(RunMetricsTest, MergeSkipsUncollected) {
  RunMetrics a;
  a.collected = true;
  a.new_bests = 3;
  RunMetrics empty;  // collected == false
  empty.new_bests = 99;
  a.merge(empty);
  EXPECT_EQ(a.new_bests, 3u);
}

TEST(RunMetricsTest, MergeIntoUncollectedAdopts) {
  RunMetrics target;
  RunMetrics source;
  source.collected = true;
  source.restarts = 1;
  source.new_bests = 2;
  source.stages.resize(2);
  source.stages[1].proposals = 7;
  target.merge(source);
  EXPECT_TRUE(target.collected);
  EXPECT_EQ(target.restarts, 1u);
  EXPECT_EQ(target.new_bests, 2u);
  ASSERT_EQ(target.stages.size(), 2u);
  EXPECT_EQ(target.stages[1].proposals, 7u);
}

TEST(RunMetricsTest, MergeZeroPadsShorterStageVector) {
  RunMetrics a;
  a.collected = true;
  a.stages.resize(1);
  a.stages[0].proposals = 5;
  RunMetrics b;
  b.collected = true;
  b.stages.resize(3);
  b.stages[2].proposals = 11;
  a.merge(b);
  ASSERT_EQ(a.stages.size(), 3u);
  EXPECT_EQ(a.stages[0].proposals, 5u);
  EXPECT_EQ(a.stages[1].proposals, 0u);
  EXPECT_EQ(a.stages[2].proposals, 11u);
}

TEST(RunMetricsTest, MergeIsAssociativeOnCounters) {
  RunMetrics a, b, c;
  for (RunMetrics* m : {&a, &b, &c}) {
    m->collected = true;
    m->stages.resize(1);
  }
  a.new_bests = 1;
  b.new_bests = 2;
  c.new_bests = 4;
  a.stages[0].accepts = 1;
  b.stages[0].accepts = 2;
  c.stages[0].accepts = 4;

  RunMetrics left = a;
  left.merge(b);
  left.merge(c);
  RunMetrics bc = b;
  bc.merge(c);
  RunMetrics right = a;
  right.merge(bc);
  EXPECT_EQ(left.new_bests, right.new_bests);
  EXPECT_EQ(left.stages[0].accepts, right.stages[0].accepts);
}

TEST(RunMetricsTest, ToJsonHasStableShape) {
  RunMetrics m;
  m.collected = true;
  m.restarts = 2;
  m.new_bests = 5;
  m.stages.resize(1);
  m.stages[0].proposals = 4;
  m.stages[0].accepts = 1;
  const std::string json = m.to_json();
  EXPECT_NE(json.find("\"collected\": true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"restarts\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"stages\": ["), std::string::npos) << json;
  EXPECT_NE(json.find("\"acceptance_rate\": 0.25"), std::string::npos)
      << json;
  // Key order is part of the contract: collected leads, stages trail.
  EXPECT_LT(json.find("\"collected\""), json.find("\"restarts\""));
  EXPECT_LT(json.find("\"wall_seconds\""), json.find("\"stages\""));
}

TEST(RunMetricsTest, DeterministicJsonDropsClocksAndSteals) {
  RunMetrics m;
  m.collected = true;
  m.restarts = 1;
  m.stages.resize(1);
  m.stages[0].proposals = 4;
  m.profile.nodes.push_back({"figure1", -1, 2, 40, 0});
  // Same counts, other clocks and scheduling: outside the determinism
  // contract, so the deterministic form cannot tell the two apart.
  RunMetrics clocked = m;
  clocked.wall_seconds = 1.5;
  clocked.invariant_seconds = 0.25;
  clocked.worker_steals = 3;
  clocked.stages[0].wall_seconds = 0.5;
  clocked.profile.nodes[0].wall_ns = 7;

  const std::string all = clocked.to_json();
  const std::string det = clocked.to_json(/*deterministic_only=*/true);
  EXPECT_EQ(det, m.to_json(/*deterministic_only=*/true));
  EXPECT_NE(all, m.to_json());
  for (const char* key : {"\"wall_seconds\"", "\"invariant_seconds\"",
                          "\"worker_steals\"", "\"wall_ns\""}) {
    EXPECT_NE(all.find(key), std::string::npos) << key;
    EXPECT_EQ(det.find(key), std::string::npos) << key;
  }
  EXPECT_NE(det.find("\"restarts\": 1"), std::string::npos) << det;
  EXPECT_NE(det.find("\"calls\": 2"), std::string::npos) << det;
  // The stage object still closes without a trailing comma.
  EXPECT_NE(det.find("\"uphill_rate\": 0\n    }"), std::string::npos) << det;
}

TEST(RunMetricsTest, SummaryMentionsHeadlineCounters) {
  RunMetrics m;
  m.collected = true;
  m.restarts = 3;
  m.stages.resize(2);
  m.stages[0].proposals = 10;
  m.stages[0].accepts = 5;
  const std::string line = m.summary();
  EXPECT_NE(line.find("restarts=3"), std::string::npos) << line;
  EXPECT_EQ(line.find('\n'), std::string::npos) << line;
}

}  // namespace
}  // namespace mcopt::obs
