// Table 4.2(b) — GOLA: strategy of Figure 1 vs strategy of Figure 2 at the
// 3-minute budget (§4.2.4).
//
// The paper gives each of the 13 g classes 3 minutes per instance under
// both strategies (local-optimum descent took ~20 s, so the budget is a
// comfortable multiple of the descent cost; the same holds here).  The
// published observations: 9 of 13 classes improve under Figure 2, and with
// the better strategy per class the spread between classes is at most ~6%.
#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <string>

#include "common.hpp"
#include "core/gfunction.hpp"
#include "util/table.hpp"

namespace {

// Legible entries of the published Table 4.2(b) {Figure 1, Figure 2}.
const std::map<std::string, std::array<int, 2>> kPaper42b{
    {"[COHO83a]", {651, 727}},        {"Metropolis", {682, 692}},
    {"Six Temperature Annealing", {739, 701}},
    {"g = 1", {736, 735}},            {"Two level g", {642, 703}},
    {"Linear Diff", {709, 738}},      {"Quadratic Diff", {656, 736}},
    {"Cubic Diff", {741, 729}},       {"Exponential Diff", {726, 735}},
    {"6 Linear Diff", {719, 738}},    {"6 Quadratic Diff", {647, 734}},
    {"6 Cubic Diff", {743, 731}},     {"6 Exponential Diff", {727, 739}},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace mcopt;
  bench::Driver driver{argc, argv};
  bench::print_header(
      "Table 4.2(b) — GOLA: Figure 1 vs Figure 2 at the 3-minute budget",
      "30 instances; random starts; 13 g classes; budget = 3 min equivalent "
      "(compressed 1/3 by default; MCOPT_BENCH_SCALE=3 restores it)");

  const auto instances = bench::gola_instances();
  const auto methods =
      bench::tune_methods(core::table42_classes(), instances,
                          /*goto_start=*/false,
                          /*typical_cost=*/80.0, /*typical_delta=*/2.0);

  bench::TableRunConfig fig1;
  fig1.budgets = {bench::scaled(bench::kThreeMin)};
  fig1.move_seed = 13;
  bench::TableRunConfig fig2 = fig1;
  fig2.figure2 = true;

  util::Table table;
  table.add_column("g function", util::Table::Align::kLeft);
  table.add_column("Figure 1");
  table.add_column("Figure 2");
  table.add_column("better");
  table.add_column("paper F1/F2", util::Table::Align::kLeft);

  int figure2_wins = 0;
  double best_of_better = 0.0;
  double worst_of_better = 1e18;
  for (const auto& method : methods) {
    const double f1 = bench::run_method_row(driver, method, instances, fig1)[0];
    const double f2 = bench::run_method_row(driver, method, instances, fig2)[0];
    figure2_wins += f2 > f1;
    const double better = std::max(f1, f2);
    best_of_better = std::max(best_of_better, better);
    worst_of_better = std::min(worst_of_better, better);
    table.begin_row();
    table.cell(method.name);
    table.cell(static_cast<long long>(f1));
    table.cell(static_cast<long long>(f2));
    table.cell(f2 > f1 ? "Fig 2" : (f1 > f2 ? "Fig 1" : "tie"));
    const auto it = kPaper42b.find(method.name);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%d / %d", it->second[0], it->second[1]);
    table.cell(std::string{buf});
  }
  table.print();
  driver.write_csv("table_4_2b", table);
  driver.finish();

  std::printf(
      "\nFigure 2 wins %d of 13 classes (paper: 9 of 13).\n"
      "Spread of the better-strategy results: %.1f%% (paper: <= 6%%).\n",
      figure2_wins,
      100.0 * (best_of_better - worst_of_better) /
          (best_of_better > 0 ? best_of_better : 1.0));
  return 0;
}
