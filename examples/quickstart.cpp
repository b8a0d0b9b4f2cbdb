// Quickstart: minimize the density of a linear arrangement with simulated
// annealing, then with the paper's recommended g = 1 rule, in ~40 lines.
//
//   $ ./quickstart [seed]
#include <cstdint>
#include <cstdio>
#include <stdexcept>

#include "core/annealer.hpp"
#include "core/figure1.hpp"
#include "core/gfunction.hpp"
#include "linarr/problem.hpp"
#include "netlist/generator.hpp"
#include "obs/log.hpp"
#include "util/args.hpp"

int main(int argc, char** argv) {
  using namespace mcopt;
  std::uint64_t seed = 1985;
  try {
    if (argc > 1) seed = util::parse_u64("seed", argv[1], 0);
  } catch (const std::invalid_argument& e) {
    obs::log(obs::LogLevel::kError, "%s", e.what());
    return 2;
  }

  // 1. An instance: 15 circuit elements, 150 two-pin nets (the paper's
  //    GOLA workload).
  util::Rng rng{seed};
  const auto nl = netlist::random_gola(netlist::GolaParams{15, 150}, rng);

  // 2. A problem: cost = density (max nets crossing between adjacent
  //    positions), moves = pairwise interchange.
  linarr::LinArrProblem problem{nl, linarr::Arrangement::random(15, rng)};
  std::printf("random start density: %.0f\n", problem.cost());

  // 3. Classic simulated annealing (Kirkpatrick schedule Y1=10, x0.9, k=6).
  core::AnnealOptions sa;
  sa.budget = 20'000;  // one tick per proposed move
  const auto sa_result = core::simulated_annealing(problem, sa, rng);
  std::printf("simulated annealing best: %.0f (reduction %.0f)\n",
              sa_result.best_cost, sa_result.reduction());

  // 4. The paper's headline alternative: g = 1, no temperatures at all.
  problem.randomize(rng);  // fresh random start for a fair comparison
  const auto g1 = core::make_g(core::GClass::kGOne);
  core::Figure1Options fig1;
  fig1.budget = 20'000;
  const auto g1_result = core::run_figure1(problem, *g1, fig1, rng);
  std::printf("g = 1 best:               %.0f (reduction %.0f)\n",
              g1_result.best_cost, g1_result.reduction());

  // 5. The best arrangement itself.
  problem.restore(g1_result.best_state);
  std::printf("g = 1 arrangement: ");
  for (const auto cell : problem.arrangement().order()) {
    std::printf("%u ", cell);
  }
  std::printf("\n");
  return 0;
}
