#include "core/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/annealer.hpp"
#include "core/figure1.hpp"
#include "core/figure2.hpp"
#include "core/gfunction.hpp"
#include "core/multistart.hpp"
#include "linarr/problem.hpp"
#include "netlist/generator.hpp"
#include "support/toy_problem.hpp"
#include "tsp/construct.hpp"
#include "tsp/instance.hpp"
#include "tsp/problem.hpp"

namespace mcopt::core {
namespace {

using mcopt::testing::ToyProblem;

// A problem without clone support: exercises the engine's refusal path.
class NoCloneProblem final : public Problem {
 public:
  [[nodiscard]] double cost() const override { return 0.0; }
  double propose(util::Rng&) override { return 0.0; }
  void accept() override {}
  void reject() override {}
  void descend(util::WorkBudget&) override {}
  void randomize(util::Rng&) override {}
  [[nodiscard]] Snapshot snapshot() const override { return {0}; }
  void restore(const Snapshot&) override {}
};

Runner descent_runner() {
  return [](Problem& problem, std::uint64_t budget, util::Rng& rng,
            const obs::Recorder& recorder) {
    return random_descent(problem, budget, rng, &recorder);
  };
}

void expect_identical(const MultistartResult& a, const MultistartResult& b) {
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.restart_best_costs, b.restart_best_costs);
  EXPECT_EQ(a.aggregate.initial_cost, b.aggregate.initial_cost);
  EXPECT_EQ(a.aggregate.final_cost, b.aggregate.final_cost);
  EXPECT_EQ(a.aggregate.best_cost, b.aggregate.best_cost);
  EXPECT_EQ(a.aggregate.best_state, b.aggregate.best_state);
  EXPECT_EQ(a.aggregate.proposals, b.aggregate.proposals);
  EXPECT_EQ(a.aggregate.accepts, b.aggregate.accepts);
  EXPECT_EQ(a.aggregate.uphill_accepts, b.aggregate.uphill_accepts);
  EXPECT_EQ(a.aggregate.descent_steps, b.aggregate.descent_steps);
  EXPECT_EQ(a.aggregate.ticks, b.aggregate.ticks);
  EXPECT_EQ(a.aggregate.temperatures_visited, b.aggregate.temperatures_visited);
  EXPECT_EQ(a.aggregate.invariants.executed, b.aggregate.invariants.executed);
}

TEST(ParallelMultistartTest, RejectsBadInputs) {
  ToyProblem problem{{1, 2, 3}, 0};
  util::Rng rng{1};
  ParallelMultistartOptions options;
  options.num_threads = 2;
  EXPECT_THROW((void)parallel_multistart(problem, nullptr, options, rng),
               std::invalid_argument);

  options.multistart.budget_per_start = 0;
  EXPECT_THROW(
      (void)parallel_multistart(problem, descent_runner(), options, rng),
      std::invalid_argument);

  options.multistart.budget_per_start =
      options.multistart.total_budget + 1;
  EXPECT_THROW(
      (void)parallel_multistart(problem, descent_runner(), options, rng),
      std::invalid_argument);

  options.multistart = MultistartOptions{};
  options.num_threads = 0;
  EXPECT_THROW(
      (void)parallel_multistart(problem, descent_runner(), options, rng),
      std::invalid_argument);
}

TEST(ParallelMultistartTest, RefusesProblemsWithoutClone) {
  NoCloneProblem problem;
  util::Rng rng{1};
  ParallelMultistartOptions options;
  options.num_threads = 2;
  EXPECT_THROW(
      (void)parallel_multistart(problem, descent_runner(), options, rng),
      std::invalid_argument);
}

TEST(ParallelMultistartTest, MatchesSequentialOnToyProblem) {
  const std::vector<double> landscape{6, 3, 5, 2, 6, 4, 7, 1, 5, 0, 6, 3};
  MultistartOptions opts;
  opts.total_budget = 3'000;
  opts.budget_per_start = 250;

  ToyProblem sequential_problem{landscape, 0};
  util::Rng sequential_rng{42};
  const MultistartResult sequential = multistart(
      sequential_problem, descent_runner(), opts, sequential_rng);

  for (const unsigned threads : {1u, 2u, 8u}) {
    ToyProblem problem{landscape, 0};
    util::Rng rng{42};
    ParallelMultistartOptions options;
    options.multistart = opts;
    options.num_threads = threads;
    const MultistartResult parallel =
        parallel_multistart(problem, descent_runner(), options, rng);
    expect_identical(sequential, parallel);
    // The problem is left in the sequential loop's end state and the rng
    // has advanced identically.
    EXPECT_EQ(problem.position(), sequential_problem.position());
    EXPECT_EQ(rng.next(), sequential_rng.next());
    // Undo the comparison draw so the next loop iteration starts equal.
    sequential_rng = util::Rng{42};
    (void)sequential_rng.next();
  }
}

TEST(ParallelMultistartTest, MatchesSequentialWithFigure1OnLinArr) {
  const auto nl =
      netlist::gola_test_set(1, netlist::GolaParams{15, 150}, 7)[0];
  const auto g = make_g(GClass::kSixTempAnnealing);
  Runner runner = [&g](Problem& p, std::uint64_t budget, util::Rng& r,
                       const obs::Recorder& recorder) {
    Figure1Options options;
    options.budget = budget;
    options.invariant_check_interval = 64;
    options.recorder = &recorder;
    return run_figure1(p, *g, options, r);
  };
  MultistartOptions opts;
  opts.total_budget = 4'000;
  opts.budget_per_start = 600;  // 6 full slices + a 400-tick remainder

  util::Rng arr_rng{3};
  linarr::LinArrProblem sequential_problem{
      nl, linarr::Arrangement::random(15, arr_rng)};
  util::Rng sequential_rng{1985};
  const MultistartResult sequential =
      multistart(sequential_problem, runner, opts, sequential_rng);

  for (const unsigned threads : {1u, 2u, 8u}) {
    util::Rng arr_rng2{3};
    linarr::LinArrProblem problem{nl,
                                  linarr::Arrangement::random(15, arr_rng2)};
    util::Rng rng{1985};
    ParallelMultistartOptions options;
    options.multistart = opts;
    options.num_threads = threads;
    const MultistartResult parallel =
        parallel_multistart(problem, runner, options, rng);
    expect_identical(sequential, parallel);
    EXPECT_EQ(problem.snapshot(), sequential_problem.snapshot());
  }
}

TEST(ParallelMultistartTest, MatchesSequentialWithFigure2OnTsp) {
  // Figure 2 runners interleave descent and kicks and can terminate slices
  // early; the engine must still reduce to the sequential aggregate.
  util::Rng city_rng{11};
  const auto instance = tsp::TspInstance::random_euclidean(24, city_rng);
  const auto g = make_g(GClass::kMetropolis);
  Runner runner = [&g](Problem& p, std::uint64_t budget, util::Rng& r,
                       const obs::Recorder& recorder) {
    Figure2Options options;
    options.budget = budget;
    options.recorder = &recorder;
    return run_figure2(p, *g, options, r);
  };
  MultistartOptions opts;
  opts.total_budget = 5'000;
  opts.budget_per_start = 900;

  tsp::TspProblem sequential_problem{instance,
                                     tsp::nearest_neighbour(instance, 0)};
  util::Rng sequential_rng{5};
  const MultistartResult sequential =
      multistart(sequential_problem, runner, opts, sequential_rng);

  for (const unsigned threads : {1u, 2u, 8u}) {
    tsp::TspProblem problem{instance,
                            tsp::nearest_neighbour(instance, 0)};
    util::Rng rng{5};
    ParallelMultistartOptions options;
    options.multistart = opts;
    options.num_threads = threads;
    const MultistartResult parallel =
        parallel_multistart(problem, runner, options, rng);
    expect_identical(sequential, parallel);
  }
}

TEST(ParallelMultistartTest, KeepFirstStartWhenRequested) {
  // randomize_first = false: restart 0 must run from the caller's current
  // solution even though it executes on a worker's clone.
  const std::vector<double> landscape{9, 2, 9, 9, 0, 9, 9, 9};
  MultistartOptions opts;
  opts.total_budget = 100;
  opts.budget_per_start = 100;
  opts.randomize_first = false;

  ToyProblem problem{landscape, 1};
  util::Rng rng{5};
  ParallelMultistartOptions options;
  options.multistart = opts;
  options.num_threads = 4;
  const MultistartResult result =
      parallel_multistart(problem, descent_runner(), options, rng);
  EXPECT_EQ(result.restarts, 1u);
  EXPECT_DOUBLE_EQ(result.aggregate.best_cost, 2.0);
}

TEST(ParallelMultistartTest, MoreThreadsThanRestarts) {
  ToyProblem problem{{5, 4, 3, 2, 1, 2, 3, 4}, 0};
  util::Rng rng{2};
  ParallelMultistartOptions options;
  options.multistart.total_budget = 200;
  options.multistart.budget_per_start = 100;
  options.num_threads = 8;
  const MultistartResult result =
      parallel_multistart(problem, descent_runner(), options, rng);
  EXPECT_EQ(result.restarts, 2u);
  EXPECT_EQ(result.aggregate.ticks, 200u);
}

// A ToyProblem whose clone() records the calling thread in a shared log.
// The log is written without a lock, so the engine must serialize the
// clone() calls; the TSan build flags a data race otherwise.
class LoggingCloneProblem final : public Problem {
 public:
  LoggingCloneProblem(ToyProblem inner, std::vector<std::thread::id>& log)
      : inner_(std::move(inner)), log_(&log) {}

  [[nodiscard]] double cost() const override { return inner_.cost(); }
  double propose(util::Rng& rng) override { return inner_.propose(rng); }
  void accept() override { inner_.accept(); }
  void reject() override { inner_.reject(); }
  void descend(util::WorkBudget& budget) override { inner_.descend(budget); }
  void randomize(util::Rng& rng) override { inner_.randomize(rng); }
  [[nodiscard]] Snapshot snapshot() const override {
    return inner_.snapshot();
  }
  void restore(const Snapshot& snap) override { inner_.restore(snap); }

  [[nodiscard]] std::unique_ptr<Problem> clone() const override {
    log_->push_back(std::this_thread::get_id());
    return std::make_unique<LoggingCloneProblem>(inner_, *log_);
  }

 private:
  ToyProblem inner_;
  std::vector<std::thread::id>* log_;
};

TEST(ParallelMultistartTest, WorkersCloneOnTheirOwnThreadsOneAtATime) {
  const std::vector<double> landscape{6, 3, 5, 2, 6, 4, 7, 1, 5, 0, 6, 3};
  MultistartOptions opts;
  // Restarts long enough that a worker's first one is still running when
  // the next worker clones: no claim then orders their clone() calls.
  opts.total_budget = 400'000;
  opts.budget_per_start = 50'000;

  ToyProblem sequential_problem{landscape, 0};
  util::Rng sequential_rng{5};
  const MultistartResult sequential = multistart(
      sequential_problem, descent_runner(), opts, sequential_rng);

  std::vector<std::thread::id> log;
  LoggingCloneProblem problem{ToyProblem{landscape, 0}, log};
  util::Rng rng{5};
  ParallelMultistartOptions options;
  options.multistart = opts;
  options.num_threads = 4;
  const MultistartResult parallel =
      parallel_multistart(problem, descent_runner(), options, rng);
  expect_identical(sequential, parallel);

  // One clone per worker that ran, each made on a worker thread.
  EXPECT_GE(log.size(), 1u);
  EXPECT_LE(log.size(), 4u);
  for (const std::thread::id id : log) {
    EXPECT_NE(id, std::this_thread::get_id());
  }
}

TEST(ParallelMultistartTest, EarlyTerminatingRunnerExtendsRestarts) {
  // A runner that consumes half its slice funds twice the restarts; the
  // speculation horizon must keep up and the parallel result must agree
  // with the sequential accounting.
  Runner half_runner = [](Problem& problem, std::uint64_t budget,
                          util::Rng& rng, const obs::Recorder&) {
    return random_descent(problem, std::min<std::uint64_t>(budget, 50), rng);
  };
  MultistartOptions opts;
  opts.total_budget = 1'000;
  opts.budget_per_start = 100;

  ToyProblem sequential_problem{{5, 4, 3, 2, 1, 2, 3, 4}, 0};
  util::Rng sequential_rng{9};
  const MultistartResult sequential =
      multistart(sequential_problem, half_runner, opts, sequential_rng);
  EXPECT_EQ(sequential.restarts, 20u);

  for (const unsigned threads : {2u, 8u}) {
    ToyProblem problem{{5, 4, 3, 2, 1, 2, 3, 4}, 0};
    util::Rng rng{9};
    ParallelMultistartOptions options;
    options.multistart = opts;
    options.num_threads = threads;
    const MultistartResult parallel =
        parallel_multistart(problem, half_runner, options, rng);
    expect_identical(sequential, parallel);
  }
}

TEST(ParallelMultistartTest, MisreportedTicksMatchSequential) {
  // Overspend: every restart charges its slice plus 7 ticks.  With 2000
  // ticks in slices of 100, restarts 0-17 get full slices (1926 spent) and
  // restart 18 the 74-tick remainder, so the round of 20 full slices must
  // discard its last two.  Zero ticks: each restart is charged the one-tick
  // floor, so rounds shrink and the tail runs as remainders.
  const Runner overspend = [](Problem& problem, std::uint64_t budget,
                              util::Rng& rng, const obs::Recorder& recorder) {
    RunResult run = random_descent(problem, budget, rng, &recorder);
    run.ticks = budget + 7;
    return run;
  };
  const Runner zero_ticks = [](Problem&, std::uint64_t, util::Rng&,
                               const obs::Recorder&) { return RunResult{}; };
  struct Case {
    Runner runner;
    std::uint64_t total_budget;
    std::uint64_t restarts;
    std::uint64_t ticks;
  };
  for (const Case& c : {Case{overspend, 2'000, 19, 18 * 107 + 81},
                        Case{zero_ticks, 64, 64, 0}}) {
    MultistartOptions opts;
    opts.total_budget = c.total_budget;
    opts.budget_per_start = c.total_budget / 20;

    ToyProblem sequential_problem{{5, 4, 3, 2, 1, 2, 3, 4}, 0};
    util::Rng sequential_rng{13};
    const MultistartResult sequential =
        multistart(sequential_problem, c.runner, opts, sequential_rng);
    EXPECT_EQ(sequential.restarts, c.restarts);
    EXPECT_EQ(sequential.aggregate.ticks, c.ticks);

    for (const unsigned threads : {1u, 2u, 8u}) {
      ToyProblem problem{{5, 4, 3, 2, 1, 2, 3, 4}, 0};
      util::Rng rng{13};
      ParallelMultistartOptions options;
      options.multistart = opts;
      options.num_threads = threads;
      const MultistartResult parallel =
          parallel_multistart(problem, c.runner, options, rng);
      expect_identical(sequential, parallel);
      EXPECT_EQ(problem.position(), sequential_problem.position());
    }
  }
}

TEST(ParallelForTest, RunsEveryIndexExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    for (const std::size_t count : {0, 1, 3, 100}) {
      // Each job writes only its own slots, so the vectors need no lock.
      std::vector<int> runs(count, 0);
      std::vector<unsigned> workers(count, 0);
      parallel_for(count, threads, [&](std::size_t index, unsigned worker) {
        ++runs[index];
        workers[index] = worker;
      });
      EXPECT_EQ(runs, std::vector<int>(count, 1))
          << "threads=" << threads << " count=" << count;
      const auto spawned =
          static_cast<unsigned>(std::min<std::size_t>(threads, count));
      for (const unsigned worker : workers) {
        if (threads <= 1) {
          EXPECT_EQ(worker, 0u);
        } else {
          EXPECT_GE(worker, 1u);
          EXPECT_LE(worker, spawned);
        }
      }
    }
  }
}

TEST(ParallelForTest, RethrowsAJobsExceptionAfterJoining) {
  for (const unsigned threads : {1u, 4u}) {
    EXPECT_THROW(parallel_for(100, threads,
                              [](std::size_t index, unsigned) {
                                if (index == 7) {
                                  throw std::runtime_error("job 7 failed");
                                }
                              }),
                 std::runtime_error);
  }
}

}  // namespace
}  // namespace mcopt::core
