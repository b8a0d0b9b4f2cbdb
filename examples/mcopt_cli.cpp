// mcopt_cli — command-line driver over the whole library: gen, stats,
// bound (lower bounds; exact for <= 10 cells), solve, partition (runs KL*,
// FM, SA and g = 1) and tsp (SA vs 2-opt vs hull-insertion).  usage()
// lists every flag and its minimum; a bad command line exits 2.
//
// METHOD is any of: goto (constructive only), anneal, white (annealing with
// a [WHIT84] auto-calibrated schedule), g1, metropolis, cohoon, or a g class
// id 1..22 from core/gfunction.hpp.  (*KL runs only on two-pin netlists.)
#include <cstddef>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/annealer.hpp"
#include "core/calibration.hpp"
#include "core/figure1.hpp"
#include "core/figure2.hpp"
#include "core/gfunction.hpp"
#include "linarr/bounds.hpp"
#include "linarr/goto_heuristic.hpp"
#include "linarr/problem.hpp"
#include "netlist/generator.hpp"
#include "netlist/io.hpp"
#include "netlist/stats.hpp"
#include "obs/log.hpp"
#include "partition/fm.hpp"
#include "partition/kl.hpp"
#include "partition/problem.hpp"
#include "tsp/construct.hpp"
#include "tsp/local_search.hpp"
#include "tsp/problem.hpp"
#include "util/args.hpp"

namespace {

using namespace mcopt;

int usage(const char* error = nullptr) {
  if (error != nullptr) obs::log(obs::LogLevel::kError, "error: %s\n", error);
  obs::log(
      obs::LogLevel::kError,
      "usage:\n"
      "  mcopt_cli gen   --kind gola|nola --cells N --nets M [--min-pins P]\n"
      "                  [--max-pins P] [--seed S] [--out FILE]\n"
      "  mcopt_cli stats --in FILE\n"
      "  mcopt_cli bound --in FILE\n"
      "  mcopt_cli solve --in FILE [--method goto|anneal|white|g1|metropolis|\n"
      "                  cohoon|<class id 1..22>] [--strategy fig1|fig2]\n"
      "                  [--start random|goto] [--budget N] [--seed S]\n"
      "                  [--scale Y] [--moves swap|insert]\n"
      "  mcopt_cli partition (--in FILE | --cells N --nets M) [--budget N]\n"
      "                  [--seed S] [--tolerance T]\n"
      "  mcopt_cli tsp   --n N [--budget N] [--seed S]\n"
      "minimums: --cells 2, --nets 1, --min-pins/--max-pins 2, --n 3,\n"
      "  --budget 1, --seed/--tolerance 0; --scale Y in [0.001, 1e6];\n"
      "maximum: --cells/--nets 4294967295 (the netlist's 32-bit ids)");
  return 2;
}

/// Rejects a flag the command does not take and a second positional word.
void check_flags(const util::Args& args,
                 const std::vector<std::string>& known) {
  const auto unknown = args.unknown_flags(known);
  if (!unknown.empty()) {
    throw std::invalid_argument("unknown flag --" + unknown.front());
  }
  if (args.positional().size() > 1) {
    throw std::invalid_argument("unexpected argument '" +
                                args.positional()[1] + "'");
  }
}

netlist::Netlist load(const util::Args& args) {
  const auto path = args.value("in");
  if (!path) throw std::invalid_argument("--in FILE is required");
  std::ifstream in{*path};
  if (!in) throw std::invalid_argument("cannot open " + *path);
  return netlist::read_netlist(in);
}

int cmd_gen(const util::Args& args) {
  check_flags(args,
              {"kind", "cells", "nets", "min-pins", "max-pins", "seed", "out"});
  const std::string kind = args.get("kind", "gola");
  netlist::NolaParams params;
  params.num_cells = args.get_count("cells", 15, 2, netlist::kMaxCells);
  params.num_nets = args.get_count("nets", 150, 1, netlist::kMaxNets);
  params.min_pins = args.get_count("min-pins", 2, 2);
  params.max_pins = args.get_count("max-pins", 6, 2);
  util::Rng rng{args.get_u64("seed", 1985, 0)};

  netlist::Netlist nl;
  if (kind == "gola") {
    nl = netlist::random_gola({params.num_cells, params.num_nets}, rng);
  } else if (kind == "nola") {
    nl = netlist::random_nola(params, rng);
  } else {
    throw std::invalid_argument("--kind must be gola or nola");
  }

  const auto out_path = args.value("out");
  if (out_path) {
    std::ofstream out{*out_path};
    if (!out) throw std::invalid_argument("cannot write " + *out_path);
    netlist::write_netlist(out, nl);
    std::cout << "wrote " << *out_path << '\n';
  } else {
    netlist::write_netlist(std::cout, nl);
  }
  return 0;
}

int cmd_stats(const util::Args& args) {
  check_flags(args, {"in"});
  netlist::print_stats(std::cout, netlist::compute_stats(load(args)));
  return 0;
}

int cmd_bound(const util::Args& args) {
  check_flags(args, {"in"});
  const netlist::Netlist nl = load(args);
  std::cout << "density lower bound: " << linarr::density_lower_bound(nl)
            << '\n';
  std::cout << "total-span lower bound: "
            << linarr::total_span_lower_bound(nl) << '\n';
  if (nl.num_cells() <= 10) {
    const auto exact = linarr::brute_force_optimum(nl);
    std::cout << "exact optimum (brute force): " << exact.density << '\n';
  } else {
    std::cout << "(instance too large for the exact brute force)\n";
  }
  return 0;
}

int cmd_solve(const util::Args& args) {
  check_flags(args, {"in", "method", "strategy", "start", "budget", "seed",
                     "scale", "moves"});
  util::Rng rng{args.get_u64("seed", 1985, 0)};
  const std::uint64_t budget = args.get_u64("budget", 20'000, 1);
  core::GParams params;
  params.scale = args.get_real("scale", 1.0, 0.001, 1e6);
  const std::string method = args.get("method", "g1");
  // A method that is not a name is a g class id, parsed like every count.
  const bool named = method == "goto" || method == "anneal" ||
                     method == "white" || method == "g1" ||
                     method == "metropolis" || method == "cohoon";
  const auto class_id = named ? 0 : util::parse_u64("--method", method, 1, 22);
  const std::string start_kind = args.get("start", "random");
  if (start_kind != "goto" && start_kind != "random") {
    throw std::invalid_argument("--start must be random or goto");
  }
  const std::string moves = args.get("moves", "swap");
  if (moves != "swap" && moves != "insert") {
    throw std::invalid_argument("--moves must be swap or insert");
  }
  const std::string strategy = args.get("strategy", "fig1");
  if (strategy != "fig1" && strategy != "fig2") {
    throw std::invalid_argument("--strategy must be fig1 or fig2");
  }
  const netlist::Netlist nl = load(args);

  linarr::Arrangement start =
      start_kind == "goto"
          ? linarr::goto_arrangement(nl)
          : linarr::Arrangement::random(nl.num_cells(), rng);
  std::cout << "start (" << start_kind
            << "): density " << linarr::density_of(nl, start) << '\n';

  if (method == "goto") {
    const auto arr = linarr::goto_arrangement(nl);
    std::cout << "goto arrangement: density " << linarr::density_of(nl, arr)
              << '\n';
    return 0;
  }

  const linarr::MoveKind move_kind =
      moves == "insert" ? linarr::MoveKind::kSingleExchange
                        : linarr::MoveKind::kPairwiseInterchange;
  linarr::LinArrProblem problem{nl, std::move(start), move_kind};

  // Resolve the method to a g function.
  std::unique_ptr<core::GFunction> g;
  params.num_nets = nl.num_nets();
  if (method == "anneal") {
    g = core::make_g(core::GClass::kSixTempAnnealing, params);
  } else if (method == "white") {
    const auto stats = core::sample_move_statistics(problem, 2'000, rng);
    auto ys = core::white_schedule(stats, 6);
    std::cout << "white schedule: Y1 " << ys.front() << " .. Yk "
              << ys.back() << '\n';
    g = core::make_annealing_g(std::move(ys));
  } else if (method == "g1") {
    g = core::make_g(core::GClass::kGOne);
  } else if (method == "metropolis") {
    g = core::make_g(core::GClass::kMetropolis, params);
  } else if (method == "cohoon") {
    g = core::make_g(core::GClass::kCohoonSahni, params);
  } else {
    g = core::make_g(static_cast<core::GClass>(class_id), params);
  }

  core::RunResult result;
  if (strategy == "fig1") {
    core::Figure1Options options;
    options.budget = budget;
    result = core::run_figure1(problem, *g, options, rng);
  } else {
    core::Figure2Options options;
    options.budget = budget;
    result = core::run_figure2(problem, *g, options, rng);
  }

  std::cout << g->name() << " (" << strategy << ", " << budget
            << " ticks): " << to_string(result) << '\n';
  problem.restore(result.best_state);
  std::cout << "best order:";
  for (const auto c : problem.arrangement().order()) std::cout << ' ' << c;
  std::cout << '\n';
  std::cout << "lower bound: " << linarr::density_lower_bound(nl) << '\n';
  return 0;
}

int cmd_partition(const util::Args& args) {
  check_flags(args, {"in", "cells", "nets", "budget", "seed", "tolerance"});
  util::Rng rng{args.get_u64("seed", 1985, 0)};
  const std::size_t cells = args.get_count("cells", 40, 2, netlist::kMaxCells);
  const std::size_t nets = args.get_count("nets", 120, 1, netlist::kMaxNets);
  const std::uint64_t budget = args.get_u64("budget", 50'000, 1);
  partition::FmOptions fm_options;
  fm_options.balance_tolerance = args.get_count("tolerance", 1, 0);
  netlist::Netlist nl;
  if (args.has("in")) {
    nl = load(args);
  } else {
    nl = netlist::random_graph(cells, nets, rng);
    std::cout << "generated random graph: " << cells << " cells, " << nets
              << " nets\n";
  }

  const auto start = partition::PartitionState::random(nl, rng);
  std::cout << "random balanced start: cut " << start.cut() << '\n';

  if (nl.is_graph()) {
    const auto kl = partition::kernighan_lin(nl, start.sides());
    std::cout << "Kernighan-Lin: cut " << kl.cut << " (" << kl.passes
              << " passes, " << kl.evaluations << " evaluations)\n";
  } else {
    std::cout << "Kernighan-Lin: skipped (multi-pin nets; use FM)\n";
  }

  const auto fm = partition::fiduccia_mattheyses(nl, start.sides(), fm_options);
  std::cout << "Fiduccia-Mattheyses: cut " << fm.cut << " (" << fm.passes
            << " passes, " << fm.evaluations << " evaluations)\n";

  {
    partition::PartitionProblem problem{
        partition::PartitionState{nl, start.sides()}};
    core::AnnealOptions options;  // Kirkpatrick schedule [KIRK83]
    options.budget = budget;
    const auto result = core::simulated_annealing(problem, options, rng);
    std::cout << "SA (Y1=10, x0.9, k=6), " << budget
              << " ticks: cut " << result.best_cost << '\n';
  }
  {
    partition::PartitionProblem problem{
        partition::PartitionState{nl, start.sides()}};
    const auto g = core::make_g(core::GClass::kGOne);
    core::Figure1Options options;
    options.budget = budget;
    const auto result = core::run_figure1(problem, *g, options, rng);
    std::cout << "g = 1, " << budget << " ticks: cut " << result.best_cost
              << '\n';
  }
  return 0;
}

int cmd_tsp(const util::Args& args) {
  check_flags(args, {"n", "budget", "seed"});
  const std::size_t n = args.get_count("n", 60, 3);
  const std::uint64_t budget = args.get_u64("budget", 200'000, 1);
  util::Rng rng{args.get_u64("seed", 1985, 0)};
  const auto inst = tsp::TspInstance::random_euclidean(n, rng, 1000.0);
  std::cout << "random Euclidean instance: n = " << n << ", budget " << budget
            << " ticks\n";

  {
    tsp::TspProblem problem{inst, tsp::random_order(n, rng)};
    const auto stats = core::sample_move_statistics(problem, 2'000, rng);
    core::AnnealOptions options;
    options.schedule = core::white_schedule(stats, 8);
    options.budget = budget;
    const auto result = core::simulated_annealing(problem, options, rng);
    std::cout << "SA ([WHIT84] schedule): " << result.best_cost << '\n';
  }
  {
    util::Rng topt_rng = rng.split();
    const auto result = tsp::restarted_two_opt(inst, budget, topt_rng);
    std::cout << "restarted 2-opt: " << result.best_length << " ("
              << result.restarts << " restarts)\n";
  }
  {
    auto built = tsp::hull_cheapest_insertion_counted(inst);
    util::WorkBudget polish{static_cast<std::uint64_t>(3 * n) * n};
    tsp::or_opt_descent(inst, built.order, polish);
    std::cout << "hull+insertion+Or-opt: " << tsp::tour_length(inst, built.order)
              << " (" << built.evaluations + polish.spent() << " ticks)\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  if (args.positional().empty()) return usage();
  const std::string& command = args.positional().front();
  try {
    if (command == "gen") return cmd_gen(args);
    if (command == "stats") return cmd_stats(args);
    if (command == "bound") return cmd_bound(args);
    if (command == "solve") return cmd_solve(args);
    if (command == "partition") return cmd_partition(args);
    if (command == "tsp") return cmd_tsp(args);
    return usage(("unknown command '" + command + "'").c_str());
  } catch (const std::exception& e) {
    return usage(e.what());
  }
}
