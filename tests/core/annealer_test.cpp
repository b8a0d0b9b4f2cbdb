#include "core/annealer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/recorder.hpp"
#include "support/toy_problem.hpp"

namespace mcopt::core {
namespace {

using mcopt::testing::ToyProblem;

std::vector<double> rugged_landscape() {
  // Several local minima; global minimum 0 at position 9.
  return {6, 3, 5, 2, 6, 4, 7, 1, 5, 0, 6, 3, 8, 2, 7, 5};
}

TEST(AnnealerTest, DefaultScheduleIsKirkpatrick) {
  ToyProblem problem{rugged_landscape(), 0};
  util::Rng rng{1};
  AnnealOptions options;
  options.budget = 600;
  const RunResult result = simulated_annealing(problem, options, rng);
  EXPECT_EQ(result.temperatures_visited, 6u);
  EXPECT_EQ(result.proposals, 600u);
}

TEST(AnnealerTest, FindsGlobalOptimumOnSmallLandscape) {
  ToyProblem problem{rugged_landscape(), 0};
  util::Rng rng{2};
  AnnealOptions options;
  options.budget = 10'000;
  const RunResult result = simulated_annealing(problem, options, rng);
  EXPECT_DOUBLE_EQ(result.best_cost, 0.0);
  ASSERT_EQ(result.best_state.size(), 1u);
  EXPECT_EQ(result.best_state[0], 9u);
}

TEST(AnnealerTest, AcceptsUphillAtHighTemperature) {
  ToyProblem problem{rugged_landscape(), 1};  // start in a local min
  util::Rng rng{3};
  AnnealOptions options;
  options.budget = 2'000;
  const RunResult result = simulated_annealing(problem, options, rng);
  EXPECT_GT(result.uphill_accepts, 0u);
}

TEST(AnnealerTest, CustomScheduleIsValidated) {
  ToyProblem problem{rugged_landscape(), 0};
  util::Rng rng{4};
  AnnealOptions options;
  options.schedule = {1.0, 2.0};  // increasing: invalid
  EXPECT_THROW((void)simulated_annealing(problem, options, rng),
               std::invalid_argument);
}

TEST(AnnealerTest, CustomScheduleControlsLevels) {
  ToyProblem problem{rugged_landscape(), 0};
  util::Rng rng{5};
  AnnealOptions options;
  options.schedule = {5.0, 1.0, 0.2};
  options.budget = 300;
  const RunResult result = simulated_annealing(problem, options, rng);
  EXPECT_EQ(result.temperatures_visited, 3u);
}

TEST(AnnealerTest, DeterministicGivenSeed) {
  ToyProblem p1{rugged_landscape(), 0};
  ToyProblem p2{rugged_landscape(), 0};
  util::Rng r1{42};
  util::Rng r2{42};
  AnnealOptions options;
  options.budget = 1000;
  const RunResult a = simulated_annealing(p1, options, r1);
  const RunResult b = simulated_annealing(p2, options, r2);
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.accepts, b.accepts);
}

TEST(RandomDescentTest, NeverAcceptsUphill) {
  ToyProblem problem{rugged_landscape(), 12};
  util::Rng rng{6};
  const RunResult result = random_descent(problem, 2000, rng);
  EXPECT_EQ(result.uphill_accepts, 0u);
  EXPECT_LE(result.final_cost, result.initial_cost);
  EXPECT_DOUBLE_EQ(result.best_cost, result.final_cost);
  EXPECT_EQ(result.proposals, 2000u);
}

TEST(RandomDescentTest, RejectionsDrawNoRandomNumbers) {
  // ToyProblem::propose draws one next_bool(); a rejection must draw
  // nothing more, so the stream is exactly one draw per proposal.
  ToyProblem problem{rugged_landscape(), 12};
  util::Rng rng{9};
  const RunResult result = random_descent(problem, 300, rng);
  ASSERT_LT(result.accepts, result.proposals);
  util::Rng expected{9};
  for (std::uint64_t i = 0; i < result.proposals; ++i) {
    (void)expected.next_bool(0.5);
  }
  EXPECT_EQ(rng.next(), expected.next());
}

TEST(RandomDescentTest, ReportsUnderTheFigure1ProfileNode) {
  ToyProblem problem{rugged_landscape(), 12};
  util::Rng rng{10};
  const obs::Recorder recorder{nullptr, /*collect_metrics=*/true,
                               /*trace_sample=*/1, /*run=*/0,
                               /*collect_profile=*/true};
  const RunResult result = random_descent(problem, 200, rng, &recorder);
  EXPECT_NE(result.metrics.profile.to_json(/*include_wall=*/false)
                .find("\"figure1\""),
            std::string::npos);
}

TEST(RandomDescentTest, ReachesNearestBasin) {
  // From position 12 (cost 8), both neighbours improve; descent must reach
  // one of the adjacent local minima but can never cross a barrier.
  std::vector<double> landscape{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 2, 5, 8, 4, 1,
                                9};
  ToyProblem problem{landscape, 12};
  util::Rng rng{7};
  const RunResult result = random_descent(problem, 500, rng);
  EXPECT_TRUE(result.best_cost == 2.0 || result.best_cost == 1.0)
      << result.best_cost;
}

TEST(RandomDescentTest, QuenchVsAnnealOnBarrieredLandscape) {
  // Start trapped behind high barriers: descent can never beat cost 2, but
  // annealing (which accepts uphill moves early) should find the global 0.
  std::vector<double> landscape{9, 2, 9, 9, 0, 9, 9, 9};
  ToyProblem quench_problem{landscape, 1};
  ToyProblem anneal_problem{landscape, 1};
  util::Rng r1{8};
  util::Rng r2{8};
  const RunResult quench = random_descent(quench_problem, 5000, r1);
  AnnealOptions options;
  options.schedule = {20.0, 10.0, 5.0, 2.0, 1.0, 0.5};
  options.budget = 5000;
  const RunResult anneal = simulated_annealing(anneal_problem, options, r2);
  EXPECT_DOUBLE_EQ(quench.best_cost, 2.0);
  EXPECT_DOUBLE_EQ(anneal.best_cost, 0.0);
}

}  // namespace
}  // namespace mcopt::core
