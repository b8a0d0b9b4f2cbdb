// Ablation A — temperature-scale sensitivity (paper conclusion 1, §4.2.5):
// "The performance of each g class (except for g = 1 and two level g) is
// quite sensitive to the temperature schedule used."
//
// Each class is run at its tuned scale multiplied by 0.1 / 0.5 / 1 / 2 /
// 10; a large spread across the row demonstrates the sensitivity, while
// the g = 1 and two-level rows are flat by construction.
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "core/gfunction.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace mcopt;
  bench::Driver driver{argc, argv};
  bench::print_header(
      "Ablation A — sensitivity to the temperature scale (conclusion 1)",
      "GOLA set; Figure 1; 12 s budget; tuned scale x {0.1, 0.5, 1, 2, 10}");

  const auto instances = bench::gola_instances();
  const std::vector<core::GClass> classes{
      core::GClass::kMetropolis,    core::GClass::kSixTempAnnealing,
      core::GClass::kGOne,          core::GClass::kTwoLevel,
      core::GClass::kLinear,        core::GClass::kExponential,
      core::GClass::kCubicDiff,     core::GClass::kExponentialDiff,
      core::GClass::kSixCubicDiff};
  const auto methods = bench::tune_methods(classes, bench::StartKind::kRandom);

  const std::vector<double> multipliers{0.1, 0.5, 1.0, 2.0, 10.0};
  bench::TableRunConfig config;
  config.budgets = {bench::scaled(bench::kTwelveSec)};
  config.move_seed = 23;

  util::Table table;
  table.add_column("g function", util::Table::Align::kLeft);
  for (const double m : multipliers) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "x%.1f", m);
    table.add_column(buf);
  }
  table.add_column("spread %");

  for (const auto& method : methods) {
    table.begin_row();
    table.cell(method.name);
    util::Summary row;
    for (const double m : multipliers) {
      bench::Method scaled_method = method;
      scaled_method.scale = method.scale * m;
      const double total =
          bench::run_method_row(driver, scaled_method, instances, config)[0];
      row.add(total);
      table.cell(static_cast<long long>(total));
    }
    const double spread =
        row.max() > 0 ? 100.0 * (row.max() - row.min()) / row.max() : 0.0;
    table.cell(spread, 1);
  }
  table.print();
  driver.write_csv("ablation_temperature", table);
  driver.finish();

  std::printf(
      "\nShape check: g = 1 and two-level rows are flat (scale unused);\n"
      "every other class swings materially with the scale.\n");
  return 0;
}
