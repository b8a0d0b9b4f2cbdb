#include "linarr/problem.hpp"

#include <cstdint>
#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>

#include "core/annealer.hpp"
#include "core/figure1.hpp"
#include "core/figure2.hpp"
#include "netlist/generator.hpp"

namespace mcopt::linarr {
namespace {

using netlist::GolaParams;
using netlist::Netlist;
using netlist::NolaParams;

Netlist paper_instance(std::uint64_t seed = 1) {
  util::Rng rng{seed};
  return netlist::random_gola(GolaParams{15, 150}, rng);
}

TEST(LinArrProblemTest, CostIsDensity) {
  const Netlist nl = paper_instance();
  util::Rng rng{2};
  const Arrangement arr = Arrangement::random(15, rng);
  LinArrProblem problem{nl, arr};
  EXPECT_DOUBLE_EQ(problem.cost(), density_of(nl, arr));
}

TEST(LinArrProblemTest, TotalSpanObjective) {
  const Netlist nl = paper_instance();
  util::Rng rng{3};
  LinArrProblem problem{nl, Arrangement::random(15, rng),
                        MoveKind::kPairwiseInterchange,
                        Objective::kTotalSpan};
  EXPECT_DOUBLE_EQ(problem.cost(),
                   static_cast<double>(problem.state().total_span()));
}

TEST(LinArrProblemTest, RejectsTinyNetlist) {
  netlist::Netlist::Builder b{1};
  const Netlist nl = b.build();
  EXPECT_THROW((LinArrProblem{nl, Arrangement{1}}), std::invalid_argument);
}

TEST(LinArrProblemTest, SpeculativeProposeLeavesCommittedCostVisible) {
  const Netlist nl = paper_instance();
  util::Rng rng{4};
  LinArrProblem problem{nl, Arrangement::random(15, rng)};
  const double h_i = problem.cost();
  const double h_j = problem.propose(rng);
  // Nothing is committed until accept(), so cost() still reports the
  // current solution.
  EXPECT_DOUBLE_EQ(problem.cost(), h_i);
  problem.accept();
  EXPECT_DOUBLE_EQ(problem.cost(), h_j);
}

TEST(LinArrProblemTest, RejectRestoresExactState) {
  const Netlist nl = paper_instance();
  util::Rng rng{5};
  LinArrProblem problem{nl, Arrangement::random(15, rng)};
  const auto before_order = problem.arrangement().order();
  const double before_cost = problem.cost();
  for (int i = 0; i < 50; ++i) {
    (void)problem.propose(rng);
    problem.reject();
    ASSERT_EQ(problem.arrangement().order(), before_order);
    ASSERT_DOUBLE_EQ(problem.cost(), before_cost);
  }
  EXPECT_TRUE(problem.state().verify());
}

TEST(LinArrProblemTest, AcceptKeepsPerturbedState) {
  const Netlist nl = paper_instance();
  util::Rng rng{6};
  LinArrProblem problem{nl, Arrangement::random(15, rng)};
  const auto before_order = problem.arrangement().order();
  const double h_j = problem.propose(rng);
  problem.accept();
  EXPECT_NE(problem.arrangement().order(), before_order);
  EXPECT_DOUBLE_EQ(problem.cost(), h_j);
  EXPECT_TRUE(problem.state().verify());
}

TEST(LinArrProblemTest, DoubleProposeThrows) {
  const Netlist nl = paper_instance();
  util::Rng rng{7};
  LinArrProblem problem{nl, Arrangement{15}};
  (void)problem.propose(rng);
  EXPECT_THROW((void)problem.propose(rng), std::logic_error);
  problem.reject();
}

TEST(LinArrProblemTest, AcceptRejectWithoutProposeThrow) {
  const Netlist nl = paper_instance();
  LinArrProblem problem{nl, Arrangement{15}};
  EXPECT_THROW(problem.accept(), std::logic_error);
  EXPECT_THROW(problem.reject(), std::logic_error);
}

TEST(LinArrProblemTest, PendingBlocksBulkOperations) {
  const Netlist nl = paper_instance();
  util::Rng rng{8};
  LinArrProblem problem{nl, Arrangement{15}};
  util::WorkBudget budget{100};
  (void)problem.propose(rng);
  EXPECT_THROW(problem.descend(budget), std::logic_error);
  EXPECT_THROW(problem.randomize(rng), std::logic_error);
  EXPECT_THROW(problem.restore(problem.snapshot()), std::logic_error);
  problem.accept();
}

TEST(LinArrProblemTest, SnapshotRestoreRoundTrips) {
  const Netlist nl = paper_instance();
  util::Rng rng{9};
  LinArrProblem problem{nl, Arrangement::random(15, rng)};
  const core::Snapshot snap = problem.snapshot();
  const double cost = problem.cost();
  problem.randomize(rng);
  problem.restore(snap);
  EXPECT_DOUBLE_EQ(problem.cost(), cost);
  EXPECT_EQ(problem.snapshot(), snap);
  EXPECT_TRUE(problem.state().verify());
}

TEST(LinArrProblemTest, RestoreRejectsGarbage) {
  const Netlist nl = paper_instance();
  LinArrProblem problem{nl, Arrangement{15}};
  EXPECT_THROW(problem.restore(core::Snapshot{1, 1, 2}),
               std::invalid_argument);
}

TEST(LinArrProblemTest, DescendReachesPairwiseLocalOptimum) {
  const Netlist nl = paper_instance();
  util::Rng rng{10};
  LinArrProblem problem{nl, Arrangement::random(15, rng)};
  const double before = problem.cost();
  util::WorkBudget budget{1'000'000};
  problem.descend(budget);
  EXPECT_LE(problem.cost(), before);
  EXPECT_TRUE(problem.is_local_optimum());
  EXPECT_TRUE(problem.state().verify());
}

TEST(LinArrProblemTest, DescendWithSingleExchangeReachesLocalOptimum) {
  const Netlist nl = paper_instance();
  util::Rng rng{11};
  LinArrProblem problem{nl, Arrangement::random(15, rng),
                        MoveKind::kSingleExchange};
  util::WorkBudget budget{1'000'000};
  problem.descend(budget);
  EXPECT_TRUE(problem.is_local_optimum());
}

TEST(LinArrProblemTest, DescendHonorsBudget) {
  const Netlist nl = paper_instance();
  util::Rng rng{12};
  LinArrProblem problem{nl, Arrangement::random(15, rng)};
  util::WorkBudget budget{10};
  problem.descend(budget);
  EXPECT_GE(budget.spent(), 10u);
  EXPECT_LE(budget.spent(), 12u);  // at most one evaluation of overshoot
}

TEST(LinArrProblemTest, SingleExchangeMovesAreUndoneCorrectly) {
  const Netlist nl = paper_instance();
  util::Rng rng{13};
  LinArrProblem problem{nl, Arrangement::random(15, rng),
                        MoveKind::kSingleExchange};
  const auto before = problem.arrangement().order();
  for (int i = 0; i < 100; ++i) {
    (void)problem.propose(rng);
    problem.reject();
  }
  EXPECT_EQ(problem.arrangement().order(), before);
  EXPECT_TRUE(problem.state().verify());
}

// Full-stack property: running every strategy/move combination end to end
// must preserve the density invariants and never report a best above start.
class LinArrRunTest
    : public ::testing::TestWithParam<std::tuple<int, MoveKind, bool>> {};

TEST_P(LinArrRunTest, EndToEndRunKeepsInvariants) {
  const auto [seed, move_kind, use_figure2] = GetParam();
  const Netlist nl = paper_instance(static_cast<std::uint64_t>(seed));
  util::Rng rng{static_cast<std::uint64_t>(seed) * 17 + 1};
  LinArrProblem problem{nl, Arrangement::random(15, rng), move_kind};
  const auto g = core::make_g(core::GClass::kSixTempAnnealing, {.scale = 4.0});
  core::RunResult result;
  if (use_figure2) {
    result = core::run_figure2(problem, *g, {.budget = 3000}, rng);
  } else {
    result = core::run_figure1(problem, *g, {.budget = 3000}, rng);
  }
  EXPECT_LE(result.best_cost, result.initial_cost);
  EXPECT_TRUE(problem.state().verify());
  // The reported best must reproduce when restored.
  problem.restore(result.best_state);
  EXPECT_DOUBLE_EQ(problem.cost(), result.best_cost);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, LinArrRunTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(MoveKind::kPairwiseInterchange,
                                         MoveKind::kSingleExchange),
                       ::testing::Bool()));

// On GOLA and on a NOLA instance that takes the column kernel, whose
// column state and scratch the clone must carry too.
TEST(LinArrProblemTest, CloneReReservesSpeculationScratch) {
  const Netlist gola = paper_instance();
  util::Rng nola_rng{20};
  const Netlist nola =
      netlist::random_nola(NolaParams{15, 150, 2, 6}, nola_rng);
  for (const Netlist* nl : {&gola, &nola}) {
    util::Rng rng{14};
    LinArrProblem problem{*nl, Arrangement::random(15, rng)};
    const auto clone = problem.clone();
    auto& cloned = dynamic_cast<LinArrProblem&>(*clone);
    EXPECT_EQ(cloned.state().uses_columns(), nl == &nola);
    EXPECT_TRUE(cloned.state().scratch_reserved());
    // The clone must run the speculative hot loop correctly from the
    // start — this is exactly the parallel engine's per-worker path.
    for (int i = 0; i < 50; ++i) {
      const double h_j = cloned.propose(rng);
      if (h_j <= cloned.cost()) {
        cloned.accept();
      } else {
        cloned.reject();
      }
    }
    EXPECT_TRUE(cloned.state().verify());
    EXPECT_TRUE(cloned.state().scratch_reserved());
  }
}

TEST(LinArrNolaTest, MultiPinInstancesWork) {
  util::Rng rng{20};
  const Netlist nl = netlist::random_nola(NolaParams{15, 150, 2, 6}, rng);
  LinArrProblem problem{nl, Arrangement::random(15, rng)};
  core::AnnealOptions options;
  options.budget = 5000;
  const core::RunResult result =
      core::simulated_annealing(problem, options, rng);
  EXPECT_LE(result.best_cost, result.initial_cost);
  EXPECT_TRUE(problem.state().verify());
}

}  // namespace
}  // namespace mcopt::linarr
