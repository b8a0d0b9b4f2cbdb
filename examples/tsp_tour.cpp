// Equal-time TSP shoot-out on one instance — the §2 story in miniature:
// simulated annealing vs restarted 2-opt vs a constructive heuristic.
//
//   $ ./tsp_tour [n] [budget_ticks]
#include <cstdint>
#include <cstdio>
#include <stdexcept>

#include "core/gfunction.hpp"
#include "core/schedule.hpp"
#include "core/figure1.hpp"
#include "obs/log.hpp"
#include "tsp/construct.hpp"
#include "tsp/local_search.hpp"
#include "tsp/problem.hpp"
#include "util/args.hpp"

int main(int argc, char** argv) {
  using namespace mcopt;
  std::size_t n = 60;
  std::uint64_t budget = 300'000;
  try {
    if (argc > 1) n = util::parse_u64("n", argv[1], 3);
    if (argc > 2) budget = util::parse_u64("budget_ticks", argv[2], 1);
  } catch (const std::invalid_argument& e) {
    obs::log(obs::LogLevel::kError, "%s", e.what());
    return 2;
  }

  util::Rng rng{42};
  const auto inst = tsp::TspInstance::random_euclidean(n, rng, 1000.0);
  std::printf("random Euclidean instance: n = %zu, budget = %llu ticks\n\n",
              n, static_cast<unsigned long long>(budget));

  // Simulated annealing, Golden-Skiscim style: 25 uniform temperatures.
  {
    tsp::TspProblem problem{inst, tsp::random_order(n, rng)};
    const auto g = core::make_annealing_g(core::uniform_schedule(250.0, 25));
    core::Figure1Options options;
    options.budget = budget;
    util::Rng sa_rng = rng.split();
    const auto result = core::run_figure1(problem, *g, options, sa_rng);
    std::printf("SA (25 uniform temps):  %.1f\n", result.best_cost);
  }

  // Restarted 2-opt at the same tick budget.
  {
    util::Rng topt_rng = rng.split();
    const auto result = tsp::restarted_two_opt(inst, budget, topt_rng);
    std::printf("restarted 2-opt:        %.1f  (%llu restarts)\n",
                result.best_length,
                static_cast<unsigned long long>(result.restarts));
  }

  // Constructive: nearest neighbour, then hull + cheapest insertion, each
  // polished by Or-opt.
  {
    tsp::Order order = tsp::nearest_neighbour(inst, 0);
    util::WorkBudget polish{budget};
    tsp::or_opt_descent(inst, order, polish);
    std::printf("NN + Or-opt:            %.1f  (%llu ticks)\n",
                tsp::tour_length(inst, order),
                static_cast<unsigned long long>(polish.spent()));
  }
  {
    tsp::Order order = tsp::hull_cheapest_insertion(inst);
    util::WorkBudget polish{budget};
    tsp::or_opt_descent(inst, order, polish);
    std::printf("hull+insertion+Or-opt:  %.1f  (%llu ticks)\n",
                tsp::tour_length(inst, order),
                static_cast<unsigned long long>(polish.spent()));
  }
  return 0;
}
