// Table 4.2(c) — NOLA, Figure 1, random starts (§4.3.1).
//
// 30 instances of 15 elements and 150 multi-pin nets.  The paper reuses
// the GOLA temperatures ("The temperatures used for this problem are the
// same as those used for the GOLA problem"), so the tuning pass here runs
// on the GOLA training set, and only the evaluation uses NOLA instances.
// Published shape: total improvements a little under 10% of the 4254
// starting total; g = 1 is the only class beating Goto and is ~30% ahead
// of six-temperature annealing.
#include <array>
#include <cstdio>
#include <map>
#include <string>

#include "common.hpp"
#include "core/gfunction.hpp"
#include "util/table.hpp"

namespace {

// Legible entries of the published Table 4.2(c) {6, 9, 12 s}.
const std::map<std::string, std::array<int, 3>> kPaper42c{
    {"Linear Diff", {288, 313, 312}},   {"Quadratic Diff", {318, 321, 323}},
    {"Cubic Diff", {207, 237, 283}},    {"Exponential Diff", {212, 289, 338}},
    {"6 Linear Diff", {306, 309, 311}}, {"6 Quadratic Diff", {316, 319, 314}},
    {"6 Cubic Diff", {210, 237, 282}},  {"6 Exponential Diff", {215, 295, 336}},
    {"g = 1", {303, 388, 388}},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace mcopt;
  bench::Driver driver{argc, argv};
  bench::print_header(
      "Table 4.2(c) — NOLA: total density reduction, Figure 1, random starts",
      "30 instances, 15 elements, 150 nets of 2-6 pins; GOLA temperatures "
      "reused per §4.3.1; budgets = 6/9/12 s equivalents");

  const auto gola = bench::gola_instances();
  const auto nola = bench::nola_instances();
  const long long start_sum =
      bench::total_start_density(nola, bench::StartKind::kRandom);
  std::printf("sum of starting densities: %lld (paper: 4254)\n\n", start_sum);

  const auto methods = bench::tune_methods(core::table42_classes(), gola,
                                           /*goto_start=*/false,
                                           /*typical_cost=*/80.0,
                                           /*typical_delta=*/2.0);

  bench::TableRunConfig config;
  config.budgets = {bench::scaled(bench::kSixSec),
                    bench::scaled(bench::kNineSec),
                    bench::scaled(bench::kTwelveSec)};
  config.move_seed = 17;

  util::Table table;
  table.add_column("g function", util::Table::Align::kLeft);
  table.add_column("6 sec");
  table.add_column("9 sec");
  table.add_column("12 sec");
  table.add_column("paper 6/9/12", util::Table::Align::kLeft);

  const long long goto_reduction = bench::goto_total_reduction(nola);
  table.begin_row();
  table.cell("Goto");
  table.cell(goto_reduction);
  table.cell("-");
  table.cell("-");
  table.cell("-");

  for (const auto& method : methods) {
    const auto totals = bench::run_method_row(driver, method, nola, config);
    table.begin_row();
    table.cell(method.name);
    for (const double t : totals) table.cell(static_cast<long long>(t));
    const auto it = kPaper42c.find(method.name);
    if (it != kPaper42c.end()) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%d / %d / %d", it->second[0],
                    it->second[1], it->second[2]);
      table.cell(std::string{buf});
    } else {
      table.cell("(illegible in scan)");
    }
  }
  table.print();
  driver.write_csv("table_4_2c", table);
  driver.finish();

  std::printf(
      "\nShape checks (§4.3.2): g = 1 leads and is the only Monte Carlo row\n"
      "competitive with Goto; six-temperature annealing trails g = 1\n"
      "significantly; improvements stay well under the starting total.\n");
  return 0;
}
