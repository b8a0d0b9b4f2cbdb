// The aggregated-metrics analogue of trace determinism: every counter,
// histogram bucket, and profile-tree node that is registered as
// deterministic must be a pure function of the seed — bit-identical
// between the sequential engine, a 1-thread parallel run, and an 8-thread
// parallel run.  The exported registry snapshots (JSON and Prometheus,
// deterministic_only form) are compared byte for byte, which is exactly
// what bench/hotloop gates in CI.
#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/figure1.hpp"
#include "core/gfunction.hpp"
#include "core/multistart.hpp"
#include "core/parallel.hpp"
#include "linarr/problem.hpp"
#include "netlist/generator.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"

namespace mcopt {
namespace {

constexpr std::uint64_t kSeed = 605;

netlist::Netlist test_netlist() {
  util::Rng rng{util::derive_seed(kSeed, 1)};
  return netlist::random_gola(netlist::GolaParams{15, 120}, rng);
}

linarr::LinArrProblem test_problem(const netlist::Netlist& nl) {
  util::Rng rng{util::derive_seed(kSeed, 2)};
  return linarr::LinArrProblem{
      nl, linarr::Arrangement::random(nl.num_cells(), rng)};
}

core::Runner figure1_runner(const core::GFunction& g) {
  return [&g](core::Problem& p, std::uint64_t budget, util::Rng& r,
              const obs::Recorder& recorder) {
    core::Figure1Options options;
    options.budget = budget;
    options.recorder = &recorder;
    return core::run_figure1(p, g, options, r);
  };
}

struct Snapshot {
  std::string registry_json;
  std::string prometheus;
  std::string profile_json;
};

Snapshot export_snapshot(const obs::RunMetrics& metrics) {
  obs::MetricsRegistry registry;
  registry.populate_from_run(metrics);
  Snapshot snap;
  snap.registry_json = registry.to_json(/*deterministic_only=*/true);
  snap.prometheus = registry.to_prometheus(/*deterministic_only=*/true);
  snap.profile_json = metrics.profile.to_json(/*include_wall=*/false);
  return snap;
}

core::MultistartResult run_profiled(unsigned threads, bool sequential) {
  const auto nl = test_netlist();
  auto problem = test_problem(nl);
  const auto g = core::make_g(core::GClass::kSixTempAnnealing);
  const auto runner = figure1_runner(*g);

  const obs::Recorder root{nullptr, /*collect_metrics=*/true,
                           /*trace_sample=*/1, /*run=*/0,
                           /*collect_profile=*/true};
  core::MultistartOptions ms;
  ms.total_budget = 20'000;
  ms.budget_per_start = 1'000;
  ms.recorder = &root;
  util::Rng rng{kSeed + 7};
  if (sequential) return core::multistart(problem, runner, ms, rng);
  core::ParallelMultistartOptions options;
  options.multistart = ms;
  options.num_threads = threads;
  return core::parallel_multistart(problem, runner, options, rng);
}

TEST(MetricsDeterminismTest, RegistrySnapshotsBitIdenticalAcrossThreads) {
  const auto t1 = run_profiled(1, /*sequential=*/false);
  const auto t8 = run_profiled(8, /*sequential=*/false);
  const Snapshot s1 = export_snapshot(t1.aggregate.metrics);
  const Snapshot s8 = export_snapshot(t8.aggregate.metrics);
  EXPECT_FALSE(s1.registry_json.empty());
  EXPECT_EQ(s1.registry_json, s8.registry_json);
  EXPECT_EQ(s1.prometheus, s8.prometheus);
  EXPECT_EQ(s1.profile_json, s8.profile_json);
}

TEST(MetricsDeterminismTest, SequentialEngineMatchesParallelSnapshots) {
  const auto seq = run_profiled(1, /*sequential=*/true);
  const auto par = run_profiled(8, /*sequential=*/false);
  const Snapshot a = export_snapshot(seq.aggregate.metrics);
  const Snapshot b = export_snapshot(par.aggregate.metrics);
  EXPECT_EQ(a.registry_json, b.registry_json);
  EXPECT_EQ(a.prometheus, b.prometheus);
  // Both engines re-root their profile under the same "multistart" node, so
  // even the tree shape is engine-invariant.
  EXPECT_EQ(a.profile_json, b.profile_json);
  EXPECT_NE(a.profile_json.find("\"name\": \"multistart\""),
            std::string::npos);
  EXPECT_NE(a.profile_json.find("\"name\": \"figure1\""), std::string::npos);
}

TEST(MetricsDeterminismTest, ProposalMixPartitionsProposalsPerStage) {
  const auto result = run_profiled(4, /*sequential=*/false);
  const obs::RunMetrics& m = result.aggregate.metrics;
  ASSERT_FALSE(m.stages.empty());
  std::uint64_t proposals = 0;
  for (const obs::StageMetrics& s : m.stages) {
    EXPECT_EQ(s.downhill_proposals + s.sideways_proposals +
                  s.uphill_proposals,
              s.proposals)
        << "proposal mix must partition the proposal count";
    proposals += s.proposals;
  }
  EXPECT_EQ(proposals, result.aggregate.proposals);
  // The uphill histograms observe exactly the uphill proposals/accepts.
  std::uint64_t uphill = 0;
  std::uint64_t uphill_accepts = 0;
  for (const obs::StageMetrics& s : m.stages) {
    uphill += s.uphill_proposals;
    uphill_accepts += s.uphill_accepts;
  }
  EXPECT_EQ(m.uphill_delta_proposed.count(), uphill);
  EXPECT_EQ(m.uphill_delta_accepted.count(), uphill_accepts);
}

// RunMetrics::merge is the shard-reduction primitive: folding per-restart
// shards one by one must equal folding pre-merged groups (associativity),
// which is why any thread partition of the same restarts reduces to the
// same totals when drained in index order.
TEST(MetricsDeterminismTest, ShardMergeIsAssociative) {
  const auto nl = test_netlist();
  const auto g = core::make_g(core::GClass::kSixTempAnnealing);
  const obs::Recorder root{nullptr, /*collect_metrics=*/true,
                           /*trace_sample=*/1, /*run=*/0,
                           /*collect_profile=*/true};

  std::vector<obs::RunMetrics> shards;
  for (std::uint64_t restart = 0; restart < 6; ++restart) {
    auto problem = test_problem(nl);
    obs::Recorder shard = root.for_restart(restart, 0, nullptr);
    core::Figure1Options options;
    options.budget = 2'000;
    options.recorder = &shard;
    util::Rng rng{util::derive_seed(kSeed + 9, restart)};
    const auto run = core::run_figure1(problem, *g, options, rng);
    shards.push_back(run.metrics);
  }

  obs::RunMetrics flat;
  for (const auto& shard : shards) flat.merge(shard);

  obs::RunMetrics left;
  obs::RunMetrics right;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    (i < 3 ? left : right).merge(shards[i]);
  }
  obs::RunMetrics grouped;
  grouped.merge(left);
  grouped.merge(right);

  // Wall clocks are doubles and FP addition is not associative; they are
  // outside the contract anyway, so compare the JSON with walls zeroed.
  auto strip_wall = [](obs::RunMetrics m) {
    m.wall_seconds = 0.0;
    m.invariant_seconds = 0.0;
    for (auto& s : m.stages) s.wall_seconds = 0.0;
    for (auto& node : m.profile.nodes) node.wall_ns = 0;
    return m;
  };
  EXPECT_EQ(strip_wall(flat).to_json(), strip_wall(grouped).to_json());
  EXPECT_EQ(export_snapshot(flat).registry_json,
            export_snapshot(grouped).registry_json);
}

}  // namespace
}  // namespace mcopt
