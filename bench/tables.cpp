// Tables 4.1 and 4.2(a)-(d): the g classes on GOLA and NOLA (§4.2-§4.3).
//
//   tables [--table 4.1|4.2a|4.2b|4.2c|4.2d|all] [driver flags]
//
// Every table follows one protocol: the §4.2.1 tuning pass, then each
// class on the same 30 instances at tick equivalents of the paper's
// budgets, then the paper's column beside ours.  Our instances and RNG
// differ from the paper's, so only the relative ordering is expected to
// match.  Tuning always trains on GOLA (§4.3.1 reuses the GOLA
// temperatures for NOLA) with fixed presets per start kind, so the scales
// are memoised by (start kind, class): `all`, the default, tunes each
// class once per start kind.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/gfunction.hpp"
#include "netlist/netlist.hpp"
#include "util/budget.hpp"
#include "util/table.hpp"

namespace {

using namespace mcopt;

/// The paper's budgets are "seconds" on its VAX; 6 s ~= 600 ticks.
constexpr std::uint64_t kTicksPerSecond = bench::kSixSec / 6;

/// A published column: row label -> the paper's entry as printed.
using PaperColumn = std::map<std::string, std::string>;

/// One table; a spec names only what differs from these defaults.
struct TableSpec {
  /// The --table value; the CSV mirror is table_<id>, '.' -> '_'.
  const char* id = "";
  const char* title = "";
  const char* protocol = "";
  bool nola = false;  ///< NOLA instances; GOLA otherwise
  /// After the sum of the evaluation starts' densities, the paper's sum;
  /// empty prints ours alone, null prints neither.
  const char* paper_start_sum = nullptr;
  bench::StartKind tune_start = bench::StartKind::kRandom;  ///< tuning starts
  std::vector<core::GClass> classes = core::table42_classes();
  bench::StartKind start = bench::StartKind::kRandom;  ///< evaluation starts
  /// Unscaled tick budgets.
  std::vector<std::uint64_t> budgets{bench::kSixSec, bench::kNineSec,
                                     bench::kTwelveSec};
  std::uint64_t move_seed = 7;
  /// Figure 1 against Figure 2 at the one budget; Figure 1 at each budget
  /// otherwise.
  bool compare_figures = false;
  /// A row for the Goto construction itself: its reduction versus the
  /// random starts, as a 6 s entry (it cost about 6 s on the paper's
  /// machine).
  bool goto_row = false;
  /// The tuning pass's wall time, a Y-scale column and, in invariant-
  /// checking builds, the invariant-check count after the table.
  bool diagnostics = false;
  PaperColumn paper{};
  const char* missing = "-";      ///< paper entry of a row the paper lacks
  const char* closing = nullptr;  ///< shape checks (compare_figures: computed)
};

std::vector<core::GClass> table41_rows() {
  auto classes = core::table41_classes();
  classes.push_back(core::GClass::kCohoonSahni);
  return classes;
}

const std::vector<TableSpec> kTables{
    {.id = "4.1",
     .title = "Table 4.1 — GOLA: total density reduction, Figure 1, random "
              "starts",
     .protocol = "30 instances, 15 elements, 150 two-pin nets; budgets = "
                 "6/9/12 s equivalents; Y_i tuned per §4.2.1",
     .paper_start_sum = "2594",
     .classes = table41_rows(),
     .goto_row = true,
     .diagnostics = true,
     .paper = {{"Goto", "601 / - / -"},
               {"[COHO83a]", "474 / 505 / 519"},
               {"Metropolis", "533 / 558 / 569"},
               {"Six Temperature Annealing", "601 / 632 / 652"},
               {"g = 1", "598 / 605 / 646"},
               {"Two level g", "546 / 524 / 582"},
               {"Linear", "464 / 495 / 520"},
               {"Quadratic", "447 / 493 / 500"},
               {"Cubic", "451 / 462 / 477"},
               {"Exponential", "488 / 461 / 535"},
               {"6 Linear", "488 / 494 / 524"},
               {"6 Quadratic", "455 / 486 / 502"},
               {"6 Cubic", "457 / 511 / 502"},
               {"6 Exponential", "475 / 510 / 513"},
               {"Linear Diff", "587 / 591 / 614"},
               {"Quadratic Diff", "515 / 527 / 541"},
               {"Cubic Diff", "618 / 626 / 654"},
               {"Exponential Diff", "597 / 599 / 617"},
               {"6 Linear Diff", "524 / 579 / 615"},
               {"6 Quadratic Diff", "528 / 506 / 546"},
               {"6 Cubic Diff", "586 / 591 / 620"},
               {"6 Exponential Diff", "552 / 574 / 631"}},
     .closing = "\nShape checks (paper §4.2.2): six-temperature annealing, "
                "g = 1 and\ncubic difference lead; classes 5-12 (current-cost "
                "g) trail; Goto is\ncompetitive with the best Monte Carlo "
                "method at the 6 s budget.\n"},
    // Costs from Goto's near-optimal arrangement differ in magnitude from a
    // random start's, so Y_i is re-tuned on Goto starts (§4.2.3).
    {.id = "4.2a",
     .title = "Table 4.2(a) — GOLA: reductions from the Goto starting "
              "arrangement",
     .protocol = "30 instances; Figure 1; 13 g classes; budgets = 6/9/12 s "
                 "equivalents",
     .paper_start_sum = "1993",
     .tune_start = bench::StartKind::kGoto,
     .start = bench::StartKind::kGoto,
     .move_seed = 11,
     .paper = {{"Linear Diff", "38 / 46 / 59"},
               {"Quadratic Diff", "20 / 18 / 30"},
               {"Cubic Diff", "31 / 43 / 76"},
               {"Exponential Diff", "41 / 43 / 62"},
               {"6 Linear Diff", "41 / 56 / 55"},
               {"6 Quadratic Diff", "26 / 35 / 39"},
               {"6 Cubic Diff", "79 / 87 / 91"},
               {"6 Exponential Diff", "55 / 78 / 86"}},
     .missing = "(illegible in scan)",
     .closing = "\nShape checks (§4.2.3): every improvement is small relative "
                "to the\nstarting total (paper: best < 5% of 1993) because "
                "Goto's arrangement\nis near-optimal; difference-based g "
                "classes do the polishing best.\n"},
    // Three minutes per instance under both strategies; the paper's
    // local-optimum descent took ~20 s, so the budget is a comfortable
    // multiple of it, as here (§4.2.4).
    {.id = "4.2b",
     .title = "Table 4.2(b) — GOLA: Figure 1 vs Figure 2 at the 3-minute "
              "budget",
     .protocol = "30 instances; random starts; 13 g classes; budget = 3 min "
                 "equivalent (30x the 6 s budget)",
     .budgets = {bench::kThreeMin},
     .move_seed = 13,
     .compare_figures = true,
     .paper = {{"[COHO83a]", "651 / 727"},
               {"Metropolis", "682 / 692"},
               {"Six Temperature Annealing", "739 / 701"},
               {"g = 1", "736 / 735"},
               {"Two level g", "642 / 703"},
               {"Linear Diff", "709 / 738"},
               {"Quadratic Diff", "656 / 736"},
               {"Cubic Diff", "741 / 729"},
               {"Exponential Diff", "726 / 735"},
               {"6 Linear Diff", "719 / 738"},
               {"6 Quadratic Diff", "647 / 734"},
               {"6 Cubic Diff", "743 / 731"},
               {"6 Exponential Diff", "727 / 739"}}},
    {.id = "4.2c",
     .title = "Table 4.2(c) — NOLA: total density reduction, Figure 1, "
              "random starts",
     .protocol = "30 instances, 15 elements, 150 nets of 2-6 pins; GOLA "
                 "temperatures reused per §4.3.1; budgets = 6/9/12 s "
                 "equivalents",
     .nola = true,
     .paper_start_sum = "4254",
     .move_seed = 17,
     .goto_row = true,
     .paper = {{"Goto", "-"},
               {"Linear Diff", "288 / 313 / 312"},
               {"Quadratic Diff", "318 / 321 / 323"},
               {"Cubic Diff", "207 / 237 / 283"},
               {"Exponential Diff", "212 / 289 / 338"},
               {"6 Linear Diff", "306 / 309 / 311"},
               {"6 Quadratic Diff", "316 / 319 / 314"},
               {"6 Cubic Diff", "210 / 237 / 282"},
               {"6 Exponential Diff", "215 / 295 / 336"},
               {"g = 1", "303 / 388 / 388"}},
     .missing = "(illegible in scan)",
     .closing = "\nShape checks (§4.3.2): g = 1 leads and is the only Monte "
                "Carlo row\ncompetitive with Goto; six-temperature annealing "
                "trails g = 1\nsignificantly; improvements stay well under "
                "the starting total.\n"},
    // The paper reuses the GOLA temperatures here, from random starts
    // (§4.3.1).
    {.id = "4.2d",
     .title = "Table 4.2(d) — NOLA: reductions from the Goto starting "
              "arrangement",
     .protocol = "30 NOLA instances; Figure 1; GOLA temperatures; budgets = "
                 "6/9/12 s equivalents",
     .nola = true,
     .paper_start_sum = "",
     .start = bench::StartKind::kGoto,
     .move_seed = 19,
     .paper = {{"[COHO83a]", "6 / 6 / 6"},
               {"Metropolis", "4 / 4 / 4"},
               {"Six Temperature Annealing", "8 / 0 / 12"},
               {"g = 1", "11 / 11 / 11"},
               {"Two level g", "3 / 3 / 2"},
               {"Linear Diff", "2 / 2 / 2"},
               {"Quadratic Diff", "0 / 0 / 0"},
               {"Cubic Diff", "2 / 2 / 2"},
               {"Exponential Diff", "11 / 20 / 20"},
               {"6 Linear Diff", "2 / 0 / 2"},
               {"6 Quadratic Diff", "2 / 2 / 2"},
               {"6 Cubic Diff", "2 / 2 / 2"},
               {"6 Exponential Diff", "10 / 4 / 2"}},
     .closing = "\nShape checks (§4.3.2): no method improves significantly "
                "on the Goto\narrangement; all entries are tiny relative to "
                "the starting total.\n"},
};

/// Tuned methods by (tuning start kind, class).
using TuneCache =
    std::map<std::pair<bench::StartKind, core::GClass>, bench::Method>;

/// bench::tune_methods for `classes`, tuning only those not in `cache`.
std::vector<bench::Method> tuned(TuneCache& cache,
                                 const std::vector<core::GClass>& classes,
                                 bench::StartKind start) {
  std::vector<core::GClass> missing;
  for (const core::GClass cls : classes) {
    if (!cache.contains({start, cls})) missing.push_back(cls);
  }
  if (!missing.empty()) {
    for (auto& method : bench::tune_methods(missing, start)) {
      cache.emplace(std::pair{start, method.cls}, std::move(method));
    }
  }
  std::vector<bench::Method> methods;
  for (const core::GClass cls : classes) {
    methods.push_back(cache.at({start, cls}));
  }
  return methods;
}

std::string paper_entry(const TableSpec& spec, const std::string& row) {
  const auto it = spec.paper.find(row);
  return it != spec.paper.end() ? it->second : spec.missing;
}

/// "6 sec"-style budget columns and one paper column, an optional Goto row,
/// then each method's total reduction at every budget.
void budget_rows(bench::Driver& driver, const TableSpec& spec,
                 const std::vector<bench::Method>& methods,
                 const std::vector<netlist::Netlist>& instances,
                 const bench::TableRunConfig& config, util::Table& table) {
  if (spec.diagnostics) table.add_column("Y scale");
  std::string paper_header = "paper ";
  for (std::size_t b = 0; b < spec.budgets.size(); ++b) {
    const std::string seconds =
        std::to_string(spec.budgets[b] / kTicksPerSecond);
    table.add_column(seconds + " sec");
    paper_header += (b == 0 ? "" : "/") + seconds;
  }
  table.add_column(paper_header, util::Table::Align::kLeft);

  if (spec.goto_row) {
    table.begin_row();
    table.cell("Goto");
    if (spec.diagnostics) table.cell("-");
    table.cell(bench::goto_total_reduction(instances));
    for (std::size_t b = 1; b < spec.budgets.size(); ++b) table.cell("-");
    table.cell(paper_entry(spec, "Goto"));
  }
  for (const auto& method : methods) {
    const auto totals =
        bench::run_method_row(driver, method, instances, config);
    table.begin_row();
    table.cell(method.name);
    if (spec.diagnostics) {
      if (core::g_class_uses_scale(method.cls)) {
        table.cell(method.scale, 4);
      } else {
        table.cell("-");
      }
    }
    for (const double t : totals) table.cell(static_cast<long long>(t));
    table.cell(paper_entry(spec, method.name));
  }
}

/// Figure 1 and Figure 2 side by side at the one budget; returns the shape
/// checks: how many classes Figure 2 wins, and the spread of the better
/// strategy's results.
std::string figure_rows(bench::Driver& driver, const TableSpec& spec,
                        const std::vector<bench::Method>& methods,
                        const std::vector<netlist::Netlist>& instances,
                        const bench::TableRunConfig& config,
                        util::Table& table) {
  table.add_column("Figure 1");
  table.add_column("Figure 2");
  table.add_column("better");
  table.add_column("paper F1/F2", util::Table::Align::kLeft);

  bench::TableRunConfig fig2 = config;
  fig2.figure2 = true;
  int figure2_wins = 0;
  double best_of_better = 0.0;
  double worst_of_better = 1e18;
  for (const auto& method : methods) {
    const double f1 =
        bench::run_method_row(driver, method, instances, config)[0];
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
    table.cell(paper_entry(spec, method.name));
  }
  char closing[160];
  std::snprintf(closing, sizeof closing,
                "\nFigure 2 wins %d of %zu classes (paper: 9 of 13).\n"
                "Spread of the better-strategy results: %.1f%% (paper: <= "
                "6%%).\n",
                figure2_wins, methods.size(),
                100.0 * (best_of_better - worst_of_better) /
                    (best_of_better > 0 ? best_of_better : 1.0));
  return closing;
}

void render(bench::Driver& driver, const TableSpec& spec, TuneCache& cache) {
  bench::print_header(spec.title, spec.protocol);
  const auto instances =
      spec.nola ? bench::nola_instances() : bench::gola_instances();
  if (spec.paper_start_sum != nullptr) {
    std::printf("sum of %sstarting densities: %lld",
                spec.start == bench::StartKind::kGoto ? "Goto " : "",
                bench::total_start_density(instances, spec.start));
    if (spec.paper_start_sum[0] != '\0') {
      std::printf(" (paper: %s)", spec.paper_start_sum);
    }
    std::printf("\n\n");
  }

  util::Stopwatch tune_watch;
  const auto methods = tuned(cache, spec.classes, spec.tune_start);
  if (spec.diagnostics) {
    std::printf("tuning pass: %.1f s\n\n", tune_watch.seconds());
  }

  bench::TableRunConfig config;
  for (const std::uint64_t budget : spec.budgets) {
    config.budgets.push_back(bench::scaled(budget));
  }
  config.start = spec.start;
  config.move_seed = spec.move_seed;

  util::Table table;
  table.add_column("g function", util::Table::Align::kLeft);
  std::string closing;
  if (spec.compare_figures) {
    closing = figure_rows(driver, spec, methods, instances, config, table);
  } else {
    budget_rows(driver, spec, methods, instances, config, table);
    closing = spec.closing;
  }
  table.print();
  std::string csv = std::string{"table_"} + spec.id;
  std::replace(csv.begin(), csv.end(), '.', '_');
  driver.write_csv(csv, table);
  if (spec.diagnostics) driver.print_invariant_summary();
  std::fputs(closing.c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Driver driver{argc, argv, {"table"}};
  std::vector<std::string> choices;
  for (const TableSpec& spec : kTables) choices.emplace_back(spec.id);
  choices.emplace_back("all");
  const std::string selected = driver.choice("table", choices, "all");

  TuneCache cache;
  for (const TableSpec& spec : kTables) {
    if (selected == "all" || selected == spec.id) render(driver, spec, cache);
  }
  driver.finish();
  return 0;
}
