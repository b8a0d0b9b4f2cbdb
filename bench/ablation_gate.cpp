// Ablation B — the §3 uphill gate for g = 1 under Figure 1.
//
// "A straightforward implementation of [g = 1 with Figure 1] results in a
// random walk through the solution space.  To prevent this ... a
// perturbation that increases the energy is accepted only if a
// sufficiently long sequence of perturbations has failed to yield a
// configuration of lower energy" (threshold 18 in the paper).  This bench
// sweeps the threshold: 1 reduces to the random walk the paper warns
// about, very large thresholds reduce to pure descent, and the paper's 18
// sits in the productive middle.
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "core/figure1.hpp"
#include "core/gfunction.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace mcopt;
  bench::Driver driver{argc, argv};
  bench::print_header(
      "Ablation B — g = 1 gate threshold under Figure 1 (§3)",
      "GOLA set; 12 s budget; thresholds 1 (random walk) .. 10^6 (descent)");

  const auto instances = bench::gola_instances();
  const auto g = core::make_g(core::GClass::kGOne);
  const std::vector<unsigned> thresholds{1, 2, 6, 18, 54, 162, 1'000'000};

  util::Table table;
  table.add_column("gate threshold");
  table.add_column("total reduction");
  table.add_column("uphill accepts / instance");

  for (const unsigned threshold : thresholds) {
    double total = 0.0;
    double uphill = 0.0;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const auto& nl = instances[i];
      linarr::LinArrProblem problem{nl,
                                    bench::random_start(i, nl.num_cells())};
      util::Rng rng{util::derive_seed(29, i)};
      core::Figure1Options options;
      options.budget = bench::scaled(bench::kTwelveSec);
      options.gate_threshold = threshold;
      const auto result = core::run_figure1(problem, *g, options, rng);
      total += result.reduction();
      uphill += static_cast<double>(result.uphill_accepts);
    }
    table.begin_row();
    table.cell(static_cast<long long>(threshold));
    table.cell(static_cast<long long>(total));
    table.cell(uphill / static_cast<double>(instances.size()), 0);
  }
  table.print();
  driver.write_csv("ablation_gate", table);
  driver.finish();

  std::printf(
      "\nShape check: threshold 1 (the unguarded random walk) is the worst;\n"
      "the paper's 18 is near the plateau of good settings.\n");
  return 0;
}
