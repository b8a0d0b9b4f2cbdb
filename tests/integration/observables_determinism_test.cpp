// Determinism of the thermodynamic observables (obs/observables.hpp):
// the per-stage cost statistics, specific heat, autocorrelation, and
// equilibrium flags must be bit-identical between 1 and 8 threads — the
// same contract the trace and metrics layers already satisfy.  Also pins
// the flight-recorder ring across the parallel shard drain: its bounded
// tail must equal the tail of the sequential stream.
#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/figure1.hpp"
#include "core/gfunction.hpp"
#include "core/multistart.hpp"
#include "core/parallel.hpp"
#include "core/problem.hpp"
#include "linarr/problem.hpp"
#include "netlist/generator.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace mcopt {
namespace {

constexpr std::uint64_t kSeed = 609;

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

obs::RunMetrics run_with(unsigned threads, obs::TraceSink* sink = nullptr) {
  const auto nl = test_netlist();
  auto problem = test_problem(nl);
  const auto g = core::make_g(core::GClass::kSixTempAnnealing);
  const auto runner = figure1_runner(*g);

  const obs::Recorder root{sink, /*collect_metrics=*/true};
  core::MultistartOptions ms;
  ms.total_budget = 20'000;
  ms.budget_per_start = 1'000;
  ms.recorder = &root;
  core::ParallelMultistartOptions options;
  options.multistart = ms;
  options.num_threads = threads;
  util::Rng rng{kSeed + 7};
  return core::parallel_multistart(problem, runner, options, rng)
      .aggregate.metrics;
}

std::string canonical_json(obs::RunMetrics metrics) {
  metrics.wall_seconds = 0.0;
  metrics.invariant_seconds = 0.0;
  for (auto& stage : metrics.stages) stage.wall_seconds = 0.0;
  // Scheduling observations are outside the determinism contract.
  metrics.worker_steals = 0;
  return metrics.to_json();
}

void expect_same_observables(const obs::RunMetrics& a,
                             const obs::RunMetrics& b) {
  ASSERT_EQ(a.observables.size(), b.observables.size());
  ASSERT_FALSE(a.observables.empty());
  for (std::size_t s = 0; s < a.observables.size(); ++s) {
    const obs::StageObservables& x = a.observables[s];
    const obs::StageObservables& y = b.observables[s];
    EXPECT_EQ(x.samples, y.samples) << "stage " << s;
    EXPECT_EQ(x.sum, y.sum) << "stage " << s;
    EXPECT_DOUBLE_EQ(x.mean(), y.mean()) << "stage " << s;
    EXPECT_DOUBLE_EQ(x.variance(), y.variance()) << "stage " << s;
    EXPECT_DOUBLE_EQ(x.temperature, y.temperature) << "stage " << s;
    EXPECT_DOUBLE_EQ(x.specific_heat(), y.specific_heat()) << "stage " << s;
    for (std::size_t lag = 1; lag <= obs::StageObservables::kMaxLag; ++lag) {
      EXPECT_DOUBLE_EQ(x.autocorrelation(lag), y.autocorrelation(lag))
          << "stage " << s << " lag " << lag;
    }
    EXPECT_EQ(x.windows, y.windows) << "stage " << s;
    EXPECT_EQ(x.equilibrated_runs, y.equilibrated_runs) << "stage " << s;
    EXPECT_EQ(x.first_equilibrated_sample, y.first_equilibrated_sample)
        << "stage " << s;
  }
}

TEST(ObservablesDeterminismTest, BitIdenticalAcrossThreadCounts) {
  const obs::RunMetrics t1 = run_with(1);
  const obs::RunMetrics t8 = run_with(8);
  expect_same_observables(t1, t8);
  EXPECT_EQ(canonical_json(t1), canonical_json(t8));
}

TEST(ObservablesDeterminismTest, TemperatureAndHeatPopulateTheRegistry) {
  const obs::RunMetrics metrics = run_with(2);
  // The annealing schedule records a positive Boltzmann temperature for
  // at least the hot stages, so a specific-heat estimate exists.
  bool saw_temperature = false;
  for (const obs::StageObservables& o : metrics.observables) {
    if (o.temperature > 0.0 && o.samples > 0) {
      saw_temperature = true;
      EXPECT_GE(o.specific_heat(), 0.0);
    }
  }
  EXPECT_TRUE(saw_temperature);

  obs::MetricsRegistry registry;
  registry.populate_from_run(metrics);
  const std::string prom = registry.to_prometheus();
  EXPECT_NE(prom.find("mcopt_stage_cost_mean"), std::string::npos);
  EXPECT_NE(prom.find("mcopt_stage_specific_heat"), std::string::npos);
  EXPECT_NE(prom.find("mcopt_stage_autocorr_lag1"), std::string::npos);
  EXPECT_NE(prom.find("mcopt_stage_uphill_rate"), std::string::npos);
}

// Satellite: the flight ring's bounded tail survives the t8 shard drain.
// The reduction drains per-restart shards into the caller's sink in
// restart-index order, so a ring of capacity M attached to a t8 run holds
// exactly the last M events of the deterministic stream — identical to
// the tail of the same run traced at t1 into an unbounded sink, once the
// sanctioned worker nondeterminism is filtered out.
TEST(ObservablesDeterminismTest, FlightRingTailMatchesAcrossShardDrain) {
  obs::VectorSink full;
  static_cast<void>(run_with(1, &full));

  constexpr std::size_t kCapacity = 64;
  obs::RingBufferSink ring{kCapacity};
  static_cast<void>(run_with(8, &ring));

  auto filtered = [](const std::vector<obs::Event>& events) {
    std::vector<obs::Event> out;
    for (obs::Event event : events) {
      if (event.kind == obs::EventKind::kWorkerSteal) continue;
      event.worker = 0;
      out.push_back(event);
    }
    return out;
  };
  const std::vector<obs::Event> baseline = filtered(full.events());
  const std::vector<obs::Event> tail = filtered(ring.snapshot());
  ASSERT_GT(baseline.size(), kCapacity) << "ring must have wrapped";
  // Steal events occupy ring slots nondeterministically, so the filtered
  // tail length M varies slightly; it must still be a suffix of the
  // deterministic stream.
  ASSERT_LE(tail.size(), kCapacity);
  ASSERT_GE(baseline.size(), tail.size());
  const std::size_t offset = baseline.size() - tail.size();
  for (std::size_t i = 0; i < tail.size(); ++i) {
    const obs::Event& want = baseline[offset + i];
    const obs::Event& got = tail[i];
    EXPECT_EQ(got.kind, want.kind) << "tail event " << i;
    EXPECT_EQ(got.stage, want.stage) << "tail event " << i;
    EXPECT_EQ(got.restart, want.restart) << "tail event " << i;
    EXPECT_EQ(got.tick, want.tick) << "tail event " << i;
    EXPECT_DOUBLE_EQ(got.cost, want.cost) << "tail event " << i;
    EXPECT_DOUBLE_EQ(got.best, want.best) << "tail event " << i;
  }
}

}  // namespace
}  // namespace mcopt
