// Table 4.2(a) — GOLA, Figure 1, starting from Goto's arrangement (§4.2.3).
//
// Same 30 instances as Table 4.1; the 13 g classes the paper carries into
// Table 4.2 (classes 5-12 dropped); Y_i re-tuned on the Goto starts since
// the cost magnitude at a near-optimal start differs from a random start.
// The paper observes the best improvement is under 5% of the Goto starting
// total (1993).
#include <array>
#include <cstdio>
#include <map>
#include <string>

#include "common.hpp"
#include "core/gfunction.hpp"
#include "util/table.hpp"

namespace {

// Legible entries of the published Table 4.2(a) {6, 9, 12 s}.
const std::map<std::string, std::array<int, 3>> kPaper42a{
    {"Linear Diff", {38, 46, 59}},     {"Quadratic Diff", {20, 18, 30}},
    {"Cubic Diff", {31, 43, 76}},      {"Exponential Diff", {41, 43, 62}},
    {"6 Linear Diff", {41, 56, 55}},   {"6 Quadratic Diff", {26, 35, 39}},
    {"6 Cubic Diff", {79, 87, 91}},    {"6 Exponential Diff", {55, 78, 86}},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace mcopt;
  bench::Driver driver{argc, argv};
  bench::print_header(
      "Table 4.2(a) — GOLA: reductions from the Goto starting arrangement",
      "30 instances; Figure 1; 13 g classes; budgets = 6/9/12 s equivalents");

  const auto instances = bench::gola_instances();
  const long long goto_sum =
      bench::total_start_density(instances, bench::StartKind::kGoto);
  std::printf("sum of Goto starting densities: %lld (paper: 1993)\n\n",
              goto_sum);

  const auto methods =
      bench::tune_methods(core::table42_classes(), instances,
                          /*goto_start=*/true,
                          /*typical_cost=*/65.0, /*typical_delta=*/1.5);

  bench::TableRunConfig config;
  config.budgets = {bench::scaled(bench::kSixSec),
                    bench::scaled(bench::kNineSec),
                    bench::scaled(bench::kTwelveSec)};
  config.start = bench::StartKind::kGoto;
  config.move_seed = 11;

  util::Table table;
  table.add_column("g function", util::Table::Align::kLeft);
  table.add_column("6 sec");
  table.add_column("9 sec");
  table.add_column("12 sec");
  table.add_column("paper 6/9/12", util::Table::Align::kLeft);

  for (const auto& method : methods) {
    const auto totals =
        bench::run_method_row(driver, method, instances, config);
    table.begin_row();
    table.cell(method.name);
    for (const double t : totals) table.cell(static_cast<long long>(t));
    const auto it = kPaper42a.find(method.name);
    if (it != kPaper42a.end()) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%d / %d / %d", it->second[0],
                    it->second[1], it->second[2]);
      table.cell(std::string{buf});
    } else {
      table.cell("(illegible in scan)");
    }
  }
  table.print();
  driver.write_csv("table_4_2a", table);
  driver.finish();

  std::printf(
      "\nShape checks (§4.2.3): every improvement is small relative to the\n"
      "starting total (paper: best < 5%% of 1993) because Goto's arrangement\n"
      "is near-optimal; difference-based g classes do the polishing best.\n");
  return 0;
}
