#include "tsp/problem.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/annealer.hpp"
#include "core/figure1.hpp"
#include "core/figure2.hpp"
#include "core/gfunction.hpp"
#include "core/schedule.hpp"

namespace mcopt::tsp {
namespace {

TEST(TspProblemTest, RejectsInvalidStart) {
  util::Rng rng{1};
  const TspInstance inst = TspInstance::random_euclidean(10, rng);
  EXPECT_THROW((TspProblem{inst, Order{0, 1, 2}}), std::invalid_argument);
  EXPECT_THROW((TspProblem{inst, Order{0, 0, 1, 2, 3, 4, 5, 6, 7, 8}}),
               std::invalid_argument);
}

TEST(TspProblemTest, CostIsTourLength) {
  util::Rng rng{2};
  const TspInstance inst = TspInstance::random_euclidean(12, rng);
  const Order order = random_order(12, rng);
  TspProblem problem{inst, order};
  EXPECT_NEAR(problem.cost(), tour_length(inst, order), 1e-9);
}

TEST(TspProblemTest, ProposeAcceptRejectKeepLengthExact) {
  util::Rng rng{3};
  const TspInstance inst = TspInstance::random_euclidean(15, rng);
  TspProblem problem{inst, random_order(15, rng)};
  for (int i = 0; i < 2000; ++i) {
    const double h_i = problem.cost();
    const Order order_i = problem.order();
    const double h_j = problem.propose(rng);
    // Nothing is committed until accept(): cost() and the tour stay at i.
    ASSERT_EQ(problem.cost(), h_i) << "step " << i;
    ASSERT_EQ(problem.order(), order_i) << "step " << i;
    if (rng.next_bool(0.5)) {
      problem.accept();
      ASSERT_NEAR(problem.cost(), h_j, 1e-6);
    } else {
      problem.reject();
    }
    ASSERT_NEAR(problem.cost(), tour_length(inst, problem.order()), 1e-6)
        << "incremental length drifted at step " << i;
    ASSERT_TRUE(is_valid_order(problem.order(), 15));
  }
}

TEST(TspProblemTest, RejectRestoresOrder) {
  util::Rng rng{4};
  const TspInstance inst = TspInstance::random_euclidean(10, rng);
  TspProblem problem{inst, identity_order(10)};
  const Order before = problem.order();
  for (int i = 0; i < 100; ++i) {
    (void)problem.propose(rng);
    problem.reject();
  }
  EXPECT_EQ(problem.order(), before);
}

TEST(TspProblemTest, PendingProtocolEnforced) {
  util::Rng rng{5};
  const TspInstance inst = TspInstance::random_euclidean(8, rng);
  TspProblem problem{inst, identity_order(8)};
  EXPECT_THROW(problem.accept(), std::logic_error);
  (void)problem.propose(rng);
  EXPECT_THROW((void)problem.propose(rng), std::logic_error);
  util::WorkBudget budget{10};
  EXPECT_THROW(problem.descend(budget), std::logic_error);
  problem.accept();
}

TEST(TspProblemTest, DescendProducesTwoOptOptimalTour) {
  util::Rng rng{6};
  const TspInstance inst = TspInstance::random_euclidean(20, rng);
  TspProblem problem{inst, random_order(20, rng)};
  util::WorkBudget budget{1'000'000};
  problem.descend(budget);
  EXPECT_TRUE(is_two_opt_optimal(inst, problem.order()));
}

TEST(TspProblemTest, SnapshotRestoreRoundTrips) {
  util::Rng rng{7};
  const TspInstance inst = TspInstance::random_euclidean(12, rng);
  TspProblem problem{inst, random_order(12, rng)};
  const auto snap = problem.snapshot();
  const double cost = problem.cost();
  problem.randomize(rng);
  problem.restore(snap);
  EXPECT_NEAR(problem.cost(), cost, 1e-9);
}

TEST(TspProblemTest, AnnealingShortensRandomTour) {
  util::Rng rng{8};
  const TspInstance inst = TspInstance::random_euclidean(30, rng, 1000.0);
  TspProblem problem{inst, random_order(30, rng)};
  core::AnnealOptions options;
  // Tour-length deltas are O(hundreds); scale the schedule accordingly.
  options.schedule = core::geometric_schedule(400.0, 0.7, 8);
  options.budget = 60'000;
  const core::RunResult result =
      core::simulated_annealing(problem, options, rng);
  EXPECT_LT(result.best_cost, result.initial_cost * 0.7)
      << "annealing should cut a random tour by well over 30%";
}

TEST(TspProblemTest, OrOptMovesKeepLengthExact) {
  util::Rng rng{21};
  const TspInstance inst = TspInstance::random_euclidean(15, rng);
  TspProblem problem{inst, random_order(15, rng), TspMoveKind::kOrOpt};
  for (int i = 0; i < 1500; ++i) {
    const double h_i = problem.cost();
    const Order order_i = problem.order();
    const double h_j = problem.propose(rng);
    // Nothing is committed until accept(): cost() and the tour stay at i.
    ASSERT_EQ(problem.cost(), h_i) << "step " << i;
    ASSERT_EQ(problem.order(), order_i) << "step " << i;
    if (rng.next_bool(0.5)) {
      problem.accept();
      ASSERT_NEAR(problem.cost(), h_j, 1e-6);
    } else {
      problem.reject();
    }
    ASSERT_NEAR(problem.cost(), tour_length(inst, problem.order()), 1e-6)
        << "drift at step " << i;
    ASSERT_TRUE(is_valid_order(problem.order(), 15));
  }
}

TEST(TspProblemTest, OrOptRejectRestoresOrder) {
  util::Rng rng{22};
  const TspInstance inst = TspInstance::random_euclidean(10, rng);
  TspProblem problem{inst, identity_order(10), TspMoveKind::kOrOpt};
  const Order before = problem.order();
  for (int i = 0; i < 200; ++i) {
    (void)problem.propose(rng);
    problem.reject();
  }
  EXPECT_EQ(problem.order(), before);
}

TEST(TspProblemTest, OrOptWorksOnTinyInstances) {
  util::Rng rng{23};
  const TspInstance inst = TspInstance::random_euclidean(4, rng);
  TspProblem problem{inst, identity_order(4), TspMoveKind::kOrOpt};
  for (int i = 0; i < 100; ++i) {
    (void)problem.propose(rng);
    problem.reject();
    ASSERT_TRUE(is_valid_order(problem.order(), 4));
  }
}

TEST(TspProblemTest, OrOptAnnealingShortensTours) {
  util::Rng rng{24};
  const TspInstance inst = TspInstance::random_euclidean(30, rng, 1000.0);
  TspProblem problem{inst, random_order(30, rng), TspMoveKind::kOrOpt};
  core::AnnealOptions options;
  options.schedule = core::geometric_schedule(400.0, 0.7, 8);
  options.budget = 60'000;
  const core::RunResult result =
      core::simulated_annealing(problem, options, rng);
  EXPECT_LT(result.best_cost, result.initial_cost * 0.8);
}

TEST(TspProblemTest, Figure2WithGOneActsAsPerturbedDescent) {
  util::Rng rng{9};
  const TspInstance inst = TspInstance::random_euclidean(20, rng);
  TspProblem problem{inst, random_order(20, rng)};
  const auto g = core::make_g(core::GClass::kGOne);
  const core::RunResult result =
      core::run_figure2(problem, *g, {.budget = 50'000}, rng);
  EXPECT_LT(result.best_cost, result.initial_cost);
  // Best solution recorded after a descent is 2-opt optimal.
  problem.restore(result.best_state);
  EXPECT_TRUE(is_two_opt_optimal(inst, problem.order()));
}

}  // namespace
}  // namespace mcopt::tsp
