// Table 4.1 — GOLA, Figure 1 strategy, random starts (§4.2.2).
//
// 30 random instances (15 elements, 150 two-pin nets), pairwise
// interchange, each of the 20 g classes plus [COHO83a]'s g at 6/9/12
// "seconds" (tick budgets), after the §4.2.1 temperature-tuning pass.  The
// Goto heuristic row reports the reduction its construction achieves versus
// the random starts.  Paper values are printed alongside for shape
// comparison (ours use different random instances and RNG, so only
// relative ordering is expected to match).
#include <array>
#include <cstdio>
#include <map>
#include <string>

#include "common.hpp"
#include "core/gfunction.hpp"
#include "util/budget.hpp"
#include "util/table.hpp"

namespace {

// The published Table 4.1 entries, row label -> {6 s, 9 s, 12 s}.
const std::map<std::string, std::array<int, 3>> kPaper41{
    {"[COHO83a]", {474, 505, 519}},
    {"Metropolis", {533, 558, 569}},
    {"Six Temperature Annealing", {601, 632, 652}},
    {"g = 1", {598, 605, 646}},
    {"Two level g", {546, 524, 582}},
    {"Linear", {464, 495, 520}},
    {"Quadratic", {447, 493, 500}},
    {"Cubic", {451, 462, 477}},
    {"Exponential", {488, 461, 535}},
    {"6 Linear", {488, 494, 524}},
    {"6 Quadratic", {455, 486, 502}},
    {"6 Cubic", {457, 511, 502}},
    {"6 Exponential", {475, 510, 513}},
    {"Linear Diff", {587, 591, 614}},
    {"Quadratic Diff", {515, 527, 541}},
    {"Cubic Diff", {618, 626, 654}},
    {"Exponential Diff", {597, 599, 617}},
    {"6 Linear Diff", {524, 579, 615}},
    {"6 Quadratic Diff", {528, 506, 546}},
    {"6 Cubic Diff", {586, 591, 620}},
    {"6 Exponential Diff", {552, 574, 631}},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace mcopt;
  bench::Driver driver{argc, argv};
  bench::print_header(
      "Table 4.1 — GOLA: total density reduction, Figure 1, random starts",
      "30 instances, 15 elements, 150 two-pin nets; budgets = 6/9/12 s "
      "equivalents; Y_i tuned per §4.2.1");

  const auto instances = bench::gola_instances();
  const long long start_sum =
      bench::total_start_density(instances, bench::StartKind::kRandom);
  std::printf("sum of starting densities: %lld (paper: 2594)\n\n", start_sum);

  util::Stopwatch tune_watch;
  auto classes = core::table41_classes();
  classes.push_back(core::GClass::kCohoonSahni);
  const auto methods = bench::tune_methods(classes, instances,
                                           /*goto_start=*/false,
                                           /*typical_cost=*/80.0,
                                           /*typical_delta=*/2.0);
  std::printf("tuning pass: %.1f s\n\n", tune_watch.seconds());

  bench::TableRunConfig config;
  config.budgets = {bench::scaled(bench::kSixSec),
                    bench::scaled(bench::kNineSec),
                    bench::scaled(bench::kTwelveSec)};

  util::Table table;
  table.add_column("g function", util::Table::Align::kLeft);
  table.add_column("Y scale");
  table.add_column("6 sec");
  table.add_column("9 sec");
  table.add_column("12 sec");
  table.add_column("paper 6/9/12", util::Table::Align::kLeft);

  // The Goto heuristic row: its construction cost corresponded to ~6 s on
  // the paper's machine, so it appears as a 6 s entry.
  const long long goto_reduction = bench::goto_total_reduction(instances);
  table.begin_row();
  table.cell("Goto");
  table.cell("-");
  table.cell(goto_reduction);
  table.cell("-");
  table.cell("-");
  table.cell("601 / - / -");

  for (const auto& method : methods) {
    const auto totals =
        bench::run_method_row(driver, method, instances, config);
    table.begin_row();
    table.cell(method.name);
    if (core::g_class_uses_scale(method.cls)) {
      table.cell(method.scale, 4);
    } else {
      table.cell("-");
    }
    for (const double t : totals) table.cell(static_cast<long long>(t));
    const auto it = kPaper41.find(method.name);
    if (it != kPaper41.end()) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%d / %d / %d", it->second[0],
                    it->second[1], it->second[2]);
      table.cell(std::string{buf});
    } else {
      table.cell("-");
    }
  }
  table.print();
  driver.write_csv("table_4_1", table);
  driver.print_invariant_summary();
  driver.finish();

  std::printf(
      "\nShape checks (paper §4.2.2): six-temperature annealing, g = 1 and\n"
      "cubic difference lead; classes 5-12 (current-cost g) trail; Goto is\n"
      "competitive with the best Monte Carlo method at the 6 s budget.\n");
  return 0;
}
