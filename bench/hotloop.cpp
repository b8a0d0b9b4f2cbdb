// Proposal hot-loop throughput and determinism checks.
//
// propose() scores a move speculatively — it evaluates the candidate into
// per-move scratch without committing it — so accept() commits in
// O(touched) and reject() only clears the scratch.  This bench prices
// that loop on a stripped Metropolis kernel with a *fixed* uphill-accept
// probability, swept from always-reject to always-accept, so the
// throughput is measured as a function of acceptance rate.  It runs on
// GOLA 15/150, whose nets take DensityState's two-pin weight matrix, GOLA
// 60/600, whose nets take its neighbour lists, and NOLA 15/150 with 2-6
// pins, so the wide-net column kernel is priced and identity-checked
// too.  The kernel owns its acceptance draws and streams them from
// Rng::next_block in 256-word blocks; pair draws stay inside propose().
// Every rep of a config replays the same streams and must agree exactly
// (final cost, accept count, final arrangement) or the bench fails.  The
// Figure 1 annealing loop itself is timed, against its stripped copy, by
// bench/obs_overhead.
//
// The bench also re-checks determinism where the speculation journal
// could plausibly leak state: an 8-thread parallel multistart over
// cloned problems must match the 1-thread run exactly, on GOLA 15/150 and
// on NOLA 15/150, whose clones carry the wide-net column state.  gate_ok
// is the conjunction of the identity checks; the bench exits 1 when it
// fails.
//
// Results land in BENCH_hotloop.json via bench::Driver::write_json and are
// gated against the committed baseline by tools/bench_compare.py.
//
// Flags: --proposals N    proposals per timed kernel run (default 2'000'000)
//        --reps N         timed repetitions per config, best-of (default 5)
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/figure1.hpp"
#include "core/gfunction.hpp"
#include "core/multistart.hpp"
#include "core/parallel.hpp"
#include "core/problem.hpp"
#include "linarr/problem.hpp"
#include "netlist/generator.hpp"
#include "obs/log.hpp"
#include "util/budget.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace mcopt;

/// What one kernel run produces; every rep of a config must agree on all
/// of it.
struct KernelResult {
  double final_cost = 0.0;
  std::uint64_t accepts = 0;
  core::Snapshot final_state;

  [[nodiscard]] bool operator==(const KernelResult& o) const {
    return final_cost == o.final_cost && accepts == o.accepts &&
           final_state == o.final_state;
  }
};

/// Fixed-acceptance Metropolis kernel: downhill moves always accepted,
/// uphill/flat moves accepted with probability `p_uphill` drawn from a
/// dedicated stream via next_block (bit-identical to per-call next(), but
/// the generator state stays in registers for 256 draws at a time).
KernelResult run_kernel(core::Problem& problem, std::uint64_t proposals,
                        double p_uphill, util::Rng& move_rng,
                        util::Rng& accept_rng) {
  constexpr std::size_t kBlock = 256;
  std::uint64_t block[kBlock];
  std::size_t cursor = kBlock;
  KernelResult out;
  double h_i = problem.cost();
  for (std::uint64_t t = 0; t < proposals; ++t) {
    const double h_j = problem.propose(move_rng);
    bool take = h_j < h_i;
    if (!take) {
      if (cursor == kBlock) {
        accept_rng.next_block(block, kBlock);
        cursor = 0;
      }
      const double u =
          static_cast<double>(block[cursor++] >> 11) * 0x1.0p-53;
      take = u < p_uphill;
    }
    if (take) {
      problem.accept();
      h_i = h_j;
      ++out.accepts;
    } else {
      problem.reject();
    }
  }
  out.final_cost = problem.cost();
  problem.snapshot_into(out.final_state);
  return out;
}

struct Instance {
  const char* label;
  std::size_t cells;
  netlist::Netlist nl;
};

/// One acceptance-swept row: timed best-of-reps on the same streams, with
/// exact-agreement enforcement per rep.
struct KernelRow {
  std::string name;
  double acceptance_rate = 0.0;
  double proposals_per_sec = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  bench::Driver driver{argc, argv, {"proposals", "reps"}};
  const std::uint64_t proposals = driver.u64("proposals", 2'000'000, 1);
  const std::size_t reps = driver.count("reps", 5, 1);

  bench::print_header(
      "Proposal hot-loop throughput",
      "fixed-acceptance Metropolis kernel; best-of-reps; "
      "gate: bit-identical reps and 1- vs 8-thread multistart");

  util::Rng gen_small{util::derive_seed(bench::kSeed, 15)};
  util::Rng gen_large{util::derive_seed(bench::kSeed, 60)};
  util::Rng gen_nola{util::derive_seed(bench::kSeed + 1, 15)};
  std::vector<Instance> instances;
  instances.push_back(
      {"15/150", 15,
       netlist::random_gola(netlist::GolaParams{15, 150}, gen_small)});
  instances.push_back(
      {"60/600", 60,
       netlist::random_gola(netlist::GolaParams{60, 600}, gen_large)});
  instances.push_back(
      {"nola 15/150", 15,
       netlist::random_nola(netlist::NolaParams{15, 150, 2, 6}, gen_nola)});

  auto make_problem = [&](const Instance& inst) {
    util::Rng start_rng{util::derive_seed(bench::kSeed + 3, inst.cells)};
    return linarr::LinArrProblem{
        inst.nl, linarr::Arrangement::random(inst.cells, start_rng)};
  };

  bool trajectory_identical = true;
  const std::vector<double> sweep{0.0, 0.05, 0.5, 1.0};
  std::vector<KernelRow> rows;
  for (const Instance& inst : instances) {
    for (const double p_uphill : sweep) {
      KernelRow row;
      char name_buf[64];
      std::snprintf(name_buf, sizeof name_buf, "kernel %s p_up=%.2f",
                    inst.label, p_uphill);
      row.name = name_buf;

      KernelResult reference;
      double best = 1e300;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        auto problem = make_problem(inst);
        util::Rng move_rng = util::Rng::split(bench::kSeed + 9, inst.cells);
        util::Rng accept_rng = util::Rng::split(bench::kSeed + 11, inst.cells);
        util::Stopwatch watch;
        const KernelResult result =
            run_kernel(problem, proposals, p_uphill, move_rng, accept_rng);
        const double seconds = watch.seconds();
        if (rep == 0) {
          reference = result;
        } else if (!(result == reference)) {
          obs::log(obs::LogLevel::kError,
                   "FATAL: '%s' diverged between reps (determinism "
                   "violation)",
                   row.name.c_str());
          trajectory_identical = false;
        }
        best = std::min(best, seconds);
      }
      row.acceptance_rate = static_cast<double>(reference.accepts) /
                            static_cast<double>(proposals);
      row.proposals_per_sec = static_cast<double>(proposals) / best;
      rows.push_back(row);
    }
  }

  // Parallel determinism: clones across 8 workers must match the 1-thread
  // run exactly.
  const auto g = core::make_g(core::GClass::kSixTempAnnealing);
  core::Runner runner = [&g](core::Problem& p, std::uint64_t slice,
                             util::Rng& r, const obs::Recorder& recorder) {
    core::Figure1Options options;
    options.budget = slice;
    options.recorder = &recorder;
    return core::run_figure1(p, *g, options, r);
  };
  const std::uint64_t ms_budget = std::min<std::uint64_t>(proposals, 200'000);
  auto run_multistart = [&](const Instance& inst, unsigned threads) {
    auto problem = make_problem(inst);
    core::ParallelMultistartOptions options;
    options.multistart.total_budget = ms_budget;
    options.multistart.budget_per_start =
        ms_budget / 50 == 0 ? 1 : ms_budget / 50;
    options.num_threads = threads;
    util::Rng rng{bench::kSeed + 21};
    return core::parallel_multistart(problem, runner, options, rng);
  };
  bool parallel_identical = true;
  for (const Instance* inst : {&instances[0], &instances[2]}) {
    const auto t1 = run_multistart(*inst, 1);
    const auto t8 = run_multistart(*inst, 8);
    parallel_identical =
        parallel_identical && t1.restarts == t8.restarts &&
        t1.restart_best_costs == t8.restart_best_costs &&
        t1.aggregate.best_cost == t8.aggregate.best_cost &&
        t1.aggregate.final_cost == t8.aggregate.final_cost &&
        t1.aggregate.best_state == t8.aggregate.best_state &&
        t1.aggregate.proposals == t8.aggregate.proposals &&
        t1.aggregate.accepts == t8.aggregate.accepts;
  }
  if (!parallel_identical) {
    obs::log(obs::LogLevel::kError,
             "FATAL: parallel multistart results diverged across thread "
             "counts (determinism violation)");
  }

  util::Table table;
  table.add_column("config", util::Table::Align::kLeft);
  table.add_column("accept rate");
  table.add_column("proposals/s");
  for (const KernelRow& row : rows) {
    table.begin_row();
    table.cell(row.name);
    table.cell(row.acceptance_rate, 4);
    table.cell(row.proposals_per_sec, 0);
  }
  table.print();

  const bool gate_ok = trajectory_identical && parallel_identical;

  // The throughput keys keep their spec_ prefix so tools/bench_compare.py
  // can diff these reports against baselines recorded under that name.
  std::string json = "{\n  \"bench\": \"hotloop\",\n";
  json += "  \"seed\": " + std::to_string(bench::kSeed) + ",\n";
  json += "  \"proposals\": " + std::to_string(proposals) + ",\n";
  json += "  \"reps\": " + std::to_string(reps) + ",\n";
  json += std::string{"  \"trajectory_identical\": "} +
          (trajectory_identical ? "true" : "false") + ",\n";
  json += std::string{"  \"parallel_identical\": "} +
          (parallel_identical ? "true" : "false") + ",\n";
  json += std::string{"  \"gate_ok\": "} + (gate_ok ? "true" : "false") +
          ",\n";
  json += "  \"configs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const KernelRow& row = rows[i];
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"acceptance_rate\": %.4f, "
                  "\"spec_proposals_per_sec\": %.1f}%s\n",
                  row.name.c_str(), row.acceptance_rate,
                  row.proposals_per_sec, i + 1 < rows.size() ? "," : "");
    json += buf;
  }
  json += "  ]\n}\n";
  driver.write_json("BENCH_hotloop", json);
  driver.finish();

  std::printf("\nRep/thread determinism: %s — %s.\n",
              gate_ok ? "bit-identical" : "MISMATCH",
              gate_ok ? "PASS" : "FAIL");
  return gate_ok ? 0 : 1;
}
