#include "partition/problem.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/annealer.hpp"
#include "core/figure1.hpp"
#include "core/gfunction.hpp"
#include "netlist/generator.hpp"
#include "partition/kl.hpp"

namespace mcopt::partition {
namespace {

TEST(PartitionProblemTest, RejectsUnbalancedStart) {
  Netlist::Builder b{4};
  b.add_net({0, 1});
  const Netlist nl = b.build();
  EXPECT_THROW((PartitionProblem{PartitionState{nl, {0, 0, 0, 1}}}),
               std::invalid_argument);
}

TEST(PartitionProblemTest, ProposePreservesBalance) {
  util::Rng rng{1};
  const Netlist nl = netlist::random_graph(20, 60, rng);
  PartitionProblem problem{PartitionState::random(nl, rng)};
  for (int i = 0; i < 200; ++i) {
    const double h_i = problem.cost();
    const auto sides_i = problem.state().sides();
    const double h_j = problem.propose(rng);
    // Nothing is committed until accept(): cost() and the sides stay at i.
    ASSERT_EQ(problem.cost(), h_i) << "step " << i;
    ASSERT_EQ(problem.state().sides(), sides_i) << "step " << i;
    ASSERT_TRUE(problem.state().is_balanced());
    if (rng.next_bool(0.5)) {
      problem.accept();
      ASSERT_EQ(problem.cost(), h_j) << "step " << i;
    } else {
      problem.reject();
    }
    ASSERT_TRUE(problem.state().is_balanced());
  }
  EXPECT_TRUE(problem.state().verify());
}

TEST(PartitionProblemTest, RejectRestoresCut) {
  util::Rng rng{2};
  const Netlist nl = netlist::random_graph(16, 50, rng);
  PartitionProblem problem{PartitionState::random(nl, rng)};
  const double before = problem.cost();
  const auto sides_before = problem.state().sides();
  for (int i = 0; i < 100; ++i) {
    (void)problem.propose(rng);
    ASSERT_EQ(problem.cost(), before) << "step " << i;
    problem.reject();
  }
  EXPECT_DOUBLE_EQ(problem.cost(), before);
  EXPECT_EQ(problem.state().sides(), sides_before);
}

TEST(PartitionProblemTest, DescendReachesSwapLocalOptimum) {
  util::Rng rng{3};
  const Netlist nl = netlist::random_graph(18, 60, rng);
  PartitionProblem problem{PartitionState::random(nl, rng)};
  util::WorkBudget budget{1'000'000};
  problem.descend(budget);
  // Brute-force: no cross swap improves.
  PartitionState state{nl, problem.state().sides()};
  const int base = state.cut();
  for (CellId a = 0; a < 18; ++a) {
    for (CellId b = a + 1; b < 18; ++b) {
      if (state.side(a) == state.side(b)) continue;
      state.swap(a, b);
      EXPECT_GE(state.cut(), base);
      state.swap(a, b);
    }
  }
}

TEST(PartitionProblemTest, SnapshotRestoreRoundTrips) {
  util::Rng rng{4};
  const Netlist nl = netlist::random_graph(12, 30, rng);
  PartitionProblem problem{PartitionState::random(nl, rng)};
  const auto snap = problem.snapshot();
  const double cost = problem.cost();
  problem.randomize(rng);
  problem.restore(snap);
  EXPECT_DOUBLE_EQ(problem.cost(), cost);
  EXPECT_EQ(problem.snapshot(), snap);
}

TEST(PartitionProblemTest, KirkpatrickAnnealingImprovesRandomCut) {
  util::Rng rng{5};
  const Netlist nl = netlist::random_graph(40, 120, rng);
  PartitionProblem problem{PartitionState::random(nl, rng)};
  // The paper's quoted schedule: Y1 = 10, x0.9, k = 6 ([KIRK83], §1).
  core::AnnealOptions options;
  options.budget = 40'000;
  const core::RunResult result =
      core::simulated_annealing(problem, options, rng);
  EXPECT_LT(result.best_cost, result.initial_cost);
  // Restoring the best snapshot must reproduce the cut and stay balanced.
  problem.restore(result.best_state);
  EXPECT_DOUBLE_EQ(problem.cost(), result.best_cost);
  EXPECT_TRUE(problem.state().is_balanced());
}

TEST(PartitionProblemTest, CloneAnnealsFromTheSameState) {
  util::Rng rng{12};
  const Netlist nl = netlist::random_graph(16, 48, rng);
  PartitionProblem problem{PartitionState::random(nl, rng)};
  const auto clone = problem.clone();
  auto& cloned = dynamic_cast<PartitionProblem&>(*clone);
  EXPECT_EQ(cloned.state().sides(), problem.state().sides());
  for (int i = 0; i < 50; ++i) {
    const double h_j = cloned.propose(rng);
    if (h_j <= cloned.cost()) {
      cloned.accept();
    } else {
      cloned.reject();
    }
  }
  EXPECT_TRUE(cloned.state().verify());
  EXPECT_TRUE(problem.state().verify());
}

TEST(PartitionProblemTest, AnnealingApproachesKlQuality) {
  // Sanity cross-check between the two optimizers on one instance: SA with
  // a generous budget should land within 2x of KL's cut.
  util::Rng rng{6};
  const Netlist nl = netlist::random_graph(30, 90, rng);
  const KlResult kl = kernighan_lin_random(nl, rng);
  PartitionProblem problem{PartitionState::random(nl, rng)};
  core::AnnealOptions options;
  options.budget = 60'000;
  const core::RunResult sa =
      core::simulated_annealing(problem, options, rng);
  EXPECT_LE(sa.best_cost, 2.0 * kl.cut + 5.0);
}

}  // namespace
}  // namespace mcopt::partition
