// Proposal hot loop: its throughput, the price of observing it, and the
// determinism checks that guard it.
//
// propose() scores a move speculatively — it evaluates the candidate into
// per-move scratch without committing it — so accept() commits in
// O(touched) and reject() only clears the scratch.  One timing loop prices
// two groups of rows:
//  - kernel rows: a stripped Metropolis kernel with a *fixed* uphill-accept
//    probability, swept from always-reject to always-accept, so throughput
//    is measured as a function of acceptance rate.  They run on GOLA
//    15/150, whose nets take DensityState's two-pin weight matrix, GOLA
//    60/600, whose nets take its neighbour lists, and NOLA 15/150 with 2-6
//    pins, whose wide nets take the column kernel.  The kernel owns its
//    acceptance draws and streams them from Rng::next_block in 256-word
//    blocks; pair draws stay inside propose().
//  - Figure 1 tiers: six-temperature annealing on GOLA 15/150, once as a
//    hand-stripped copy of the loop (run_stripped_figure1 below, the
//    timing baseline) and then through core::run_figure1 with the
//    recorder off, metrics, metrics + profiler, a ring-buffer trace and a
//    sampled JSONL trace.  The contract (src/obs/recorder.hpp): every
//    event method and every profile scope starts with an inlined
//    `if (off_) return;`, so with no recorder installed the instrumented
//    loop may cost at most --gate-pct (1% by default; CI passes 10% at its
//    short budget) over the stripped one.
//
// Methodology: one untimed warmup pass over all rows, then best-of-reps
// with reps interleaved across rows (not row by row) so machine drift
// cannot skew the comparison.  Each tier's overhead_pct is the median of
// its paired per-rep ratios against the stripped loop (the gate reads it);
// overhead_pct_min/_max give their spread.  Every rep of a row replays the
// same streams and must reproduce its warmup run exactly (results and final
// solution), and every tier must reproduce the stripped loop's results.
//
// The multistart section re-checks determinism where the speculation
// journal could plausibly leak state:
//  - Figure 1 restarts through core::parallel_multistart at 1, 2, 4 and 8
//    threads on all three instances, whose clones carry the matrix, list
//    and column state.  Every thread count must reproduce the 1-thread
//    aggregate; the sweep reports seconds, speedup and efficiency.
//  - On GOLA 15/150, a traced and profiled 8-thread run must equal an
//    untraced 1-thread run, and its deterministic report JSON
//    (RunMetrics::to_json(true): no wall clock, steal count or profile
//    wall_ns) must equal the traced 1-thread run's, byte for byte.
//
// Results land in BENCH_hotloop.json via bench::Driver::write_json and are
// gated against the committed baseline by tools/bench_compare.py.
// Wall-clock numbers are hardware-dependent; the checks are not.  gate_ok
// is the conjunction of the off-path gate and every identity check; the
// bench exits 1 when it fails.
//
// Flags: --proposals N  proposals per timed run (default 2'000'000); the
//                       multistart budgets are capped at it
//        --reps N       timed repetitions per row, best-of (default 5)
//        --gate-pct P   max off-path overhead vs the stripped loop, in
//                       percent (default 1.0)
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
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
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "util/budget.hpp"
#include "util/invariant.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace mcopt;

/// Fixed-acceptance Metropolis kernel: downhill moves always accepted,
/// uphill/flat moves accepted with probability `p_uphill` drawn from a
/// dedicated stream via next_block (bit-identical to per-call next(), but
/// the generator state stays in registers for 256 draws at a time).  Only
/// final_cost, proposals and accepts of the result are set.
core::RunResult run_kernel(core::Problem& problem, std::uint64_t proposals,
                           double p_uphill, util::Rng& move_rng,
                           util::Rng& accept_rng) {
  constexpr std::size_t kBlock = 256;
  std::uint64_t block[kBlock];
  std::size_t cursor = kBlock;
  core::RunResult out;
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
  out.proposals = proposals;
  out.final_cost = problem.cost();
  return out;
}

/// core::run_figure1 exactly as it would look with no instrumentation
/// compiled in at all: the timing baseline of every tier.  Every tier is
/// checked against it with results_match, so the two loops cannot drift
/// apart silently.
core::RunResult run_stripped_figure1(core::Problem& problem,
                                     const core::GFunction& g,
                                     const core::Figure1Options& options,
                                     util::Rng& rng) {
  const unsigned k = g.num_temperatures();
  util::WorkBudget budget{options.budget};

  core::RunResult result;
  result.initial_cost = problem.cost();
  result.best_cost = result.initial_cost;
  problem.snapshot_into(result.best_state);
  result.temperatures_visited = k == 0 ? 0 : 1;

  unsigned temp = 0;
  std::uint64_t reject_counter = 0;
  std::uint64_t accept_counter = 0;
  unsigned gate_counter = 0;
  double h_i = result.initial_cost;

  auto advance_temperature = [&]() -> bool {
    if (temp + 1 >= k) return false;
    ++temp;
    ++result.temperatures_visited;
    reject_counter = 0;
    accept_counter = 0;
    return true;
  };

  bool schedule_exhausted = false;
  while (!budget.exhausted() && !schedule_exhausted && k > 0) {
    while (budget.spent() >= budget.slice_end(k, temp)) {
      if (!advance_temperature()) {
        schedule_exhausted = true;
        break;
      }
    }
    if (schedule_exhausted) break;

    if constexpr (util::kInvariantsEnabled) {
      if (options.invariant_check_interval != 0 &&
          result.proposals % options.invariant_check_interval == 0) {
        problem.check_invariants();
        ++result.invariants.executed;
      }
    }

    const double h_j = problem.propose(rng);
    budget.charge();
    ++result.proposals;
    result.ticks = budget.spent();

    auto note_accept = [&]() {
      ++accept_counter;
      if (options.equilibrium_accepts > 0 &&
          accept_counter >= options.equilibrium_accepts &&
          !advance_temperature()) {
        schedule_exhausted = true;
      }
    };

    const double delta = h_j - h_i;
    if (delta < 0.0) {
      problem.accept();
      ++result.accepts;
      h_i = h_j;
      gate_counter = 0;
      reject_counter = 0;
      if (h_i < result.best_cost) {
        result.best_cost = h_i;
        problem.snapshot_into(result.best_state);
      }
      note_accept();
      continue;
    }

    if (options.equilibrium_rejects > 0 &&
        reject_counter >= options.equilibrium_rejects) {
      problem.reject();
      if (!advance_temperature()) break;
      continue;
    }

    bool take = false;
    if (g.always_accepts(temp)) {
      ++gate_counter;
      if (gate_counter >= options.gate_threshold) {
        take = true;
        gate_counter = 1;
      }
    } else if (!g.never_accepts(temp)) {
      take = rng.next_double() < g.probability(temp, h_i, h_j);
    }

    if (take) {
      problem.accept();
      ++result.accepts;
      if (delta > 0.0) ++result.uphill_accepts;
      h_i = h_j;
      reject_counter = 0;
      note_accept();
    } else {
      problem.reject();
      ++reject_counter;
    }
  }

  result.final_cost = problem.cost();
  return result;
}

bool results_match(const core::RunResult& a, const core::RunResult& b) {
  return a.best_cost == b.best_cost && a.final_cost == b.final_cost &&
         a.proposals == b.proposals && a.accepts == b.accepts &&
         a.uphill_accepts == b.uphill_accepts && a.ticks == b.ticks &&
         a.temperatures_visited == b.temperatures_visited &&
         a.best_state == b.best_state;
}

bool multistart_match(const core::MultistartResult& a,
                      const core::MultistartResult& b) {
  return a.restarts == b.restarts &&
         a.restart_best_costs == b.restart_best_costs &&
         results_match(a.aggregate, b.aggregate);
}

/// Paired per-rep overhead of a timed tier against the stripped run of the
/// same rep, in percent: 100 * (tier / baseline - 1).  Adjacent runs share
/// machine conditions, so drift cancels out of each ratio.  The median is
/// the reported (and gated) overhead: unlike a minimum it is not biased low
/// when a baseline rep eats a noise spike, and unlike a mean it shrugs off a
/// single bad rep of the measured tier.  Min and max show its noise floor.
struct PairedOverhead {
  double min_pct = 0.0;
  double median_pct = 0.0;
  double max_pct = 0.0;
};

PairedOverhead paired_overhead(const std::vector<double>& tier_seconds,
                               const std::vector<double>& baseline_seconds) {
  std::vector<double> pct;
  pct.reserve(tier_seconds.size());
  for (std::size_t rep = 0; rep < tier_seconds.size(); ++rep) {
    if (baseline_seconds[rep] > 0.0) {
      pct.push_back(100.0 * (tier_seconds[rep] / baseline_seconds[rep] - 1.0));
    }
  }
  if (pct.empty()) return {};
  const auto [lo, hi] = std::minmax_element(pct.begin(), pct.end());
  return {*lo, util::median(pct), *hi};
}

struct Instance {
  const char* label;
  netlist::Netlist nl;
};

/// One timed row: `run` replays the same streams on a fresh problem every
/// call.  The timing loop fills in the warmup run's result and final
/// solution (the row's reference) and the timed reps' seconds.
struct Row {
  std::string name;
  const Instance* inst;
  std::function<core::RunResult(core::Problem&)> run;
  bool tier = false;  ///< a Figure 1 tier, measured against the stripped loop
  core::RunResult result{};
  core::Snapshot final_state{};
  std::vector<double> seconds{};

  [[nodiscard]] double best() const {
    return *std::min_element(seconds.begin(), seconds.end());
  }
  [[nodiscard]] double proposals_per_sec() const {
    return static_cast<double>(result.proposals) / best();
  }
  [[nodiscard]] double acceptance_rate() const {
    return static_cast<double>(result.accepts) /
           static_cast<double>(result.proposals);
  }
};

/// A parallel multistart workload: total ticks, split evenly into
/// `restarts` restarts, and the seed of the caller's stream.
struct Protocol {
  std::uint64_t total;
  std::uint64_t restarts;
  std::uint64_t seed;

  [[nodiscard]] std::uint64_t per_start() const {
    return std::max<std::uint64_t>(total / restarts, 1);
  }
};

struct SweepPoint {
  const Instance* inst;
  unsigned threads;
  double seconds;
  double speedup;
  core::MultistartResult result;
};

}  // namespace

int main(int argc, char** argv) {
  bench::Driver driver{argc, argv, {"proposals", "reps", "gate-pct"}};
  const std::uint64_t proposals = driver.u64("proposals", 2'000'000, 1);
  const std::size_t reps = driver.count("reps", 5, 1);
  const double gate_pct = driver.real("gate-pct", 1.0, 0.001);

  bench::print_header(
      "Proposal hot loop — throughput, recorder overhead, determinism",
      "fixed-acceptance kernel and Figure 1 tiers; best-of-reps; off-path "
      "gate vs a hand-stripped loop; bit-identical reps and threads");
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware_concurrency=%u (speedup is bounded by this)\n\n", hw);

  util::Rng gen15{util::derive_seed(bench::kSeed, 15)};
  util::Rng gen60{util::derive_seed(bench::kSeed, 60)};
  util::Rng gen_nola{util::derive_seed(bench::kSeed + 1, 15)};
  const std::vector<Instance> instances{
      {"15/150", netlist::random_gola(netlist::GolaParams{15, 150}, gen15)},
      {"60/600", netlist::random_gola(netlist::GolaParams{60, 600}, gen60)},
      {"nola 15/150",
       netlist::random_nola(netlist::NolaParams{15, 150, 2, 6}, gen_nola)}};
  const Instance& gola15 = instances[0];

  auto make_problem = [](const Instance& inst) {
    const std::size_t n = inst.nl.num_cells();
    util::Rng start_rng{util::derive_seed(bench::kSeed + 3, n)};
    return linarr::LinArrProblem{inst.nl,
                                 linarr::Arrangement::random(n, start_rng)};
  };
  const auto g = core::make_g(core::GClass::kSixTempAnnealing);

  std::vector<Row> rows;
  for (const Instance& inst : instances) {
    const std::size_t n = inst.nl.num_cells();
    for (const double p_uphill : {0.0, 0.05, 0.5, 1.0}) {
      char name[64];
      std::snprintf(name, sizeof name, "kernel %s p_up=%.2f", inst.label,
                    p_uphill);
      auto run = [n, p_uphill, proposals](core::Problem& p) {
        util::Rng move_rng = util::Rng::split(bench::kSeed + 9, n);
        util::Rng accept_rng = util::Rng::split(bench::kSeed + 11, n);
        return run_kernel(p, proposals, p_uphill, move_rng, accept_rng);
      };
      rows.push_back({name, &inst, run});
    }
  }

  obs::RingBufferSink ring{65536};
  std::ostringstream jsonl_out;
  obs::JsonlFileSink jsonl{jsonl_out};
  const obs::Recorder metrics{nullptr, /*collect_metrics=*/true};
  const obs::Recorder metrics_profile{nullptr, /*collect_metrics=*/true,
                                      /*trace_sample=*/1, /*run=*/0,
                                      /*collect_profile=*/true};
  const obs::Recorder ring_traced{&ring, /*collect_metrics=*/true};
  const obs::Recorder jsonl_sampled{&jsonl, /*collect_metrics=*/true,
                                    /*trace_sample=*/64};
  struct Tier {
    const char* name;
    bool stripped;
    const obs::Recorder* recorder;
  };
  const std::size_t stripped_row = rows.size();
  for (const Tier& tier : std::vector<Tier>{
           {"baseline (stripped loop)", true, nullptr},
           {"off (no recorder)", false, nullptr},
           {"metrics only", false, &metrics},
           {"metrics + profiler", false, &metrics_profile},
           {"ring trace 64k + metrics", false, &ring_traced},
           {"jsonl 1/64 + metrics", false, &jsonl_sampled}}) {
    auto run = [&g, tier, proposals](core::Problem& p) {
      core::Figure1Options options;
      options.budget = proposals;
      options.recorder = tier.recorder;
      util::Rng rng{bench::kSeed + 9};
      return tier.stripped ? run_stripped_figure1(p, *g, options, rng)
                           : core::run_figure1(p, *g, options, rng);
    };
    rows.push_back({tier.name, &gola15, run, /*tier=*/true});
  }

  // Rep 0 is the untimed warmup of every row (first-touch allocation,
  // i-cache, frequency ramp) and its reference run; the timed reps then
  // interleave across rows so slow machine drift lands evenly on all of
  // them.  Timing row by row made the stripped baseline absorb all the
  // cold-start cost and could report *negative* overhead for the
  // instrumented tiers.
  bool reps_identical = true;
  for (std::size_t rep = 0; rep <= reps; ++rep) {
    for (Row& row : rows) {
      auto problem = make_problem(*row.inst);
      util::Stopwatch watch;
      core::RunResult result = row.run(problem);
      const double seconds = watch.seconds();
      core::Snapshot final_state;
      problem.snapshot_into(final_state);
      if (rep == 0) {
        row.result = std::move(result);
        row.final_state = std::move(final_state);
        continue;
      }
      row.seconds.push_back(seconds);
      if (!results_match(result, row.result) ||
          final_state != row.final_state) {
        obs::log(obs::LogLevel::kError,
                 "FATAL: '%s' diverged between reps (determinism violation)",
                 row.name.c_str());
        reps_identical = false;
      }
    }
  }
  const Row& stripped = rows[stripped_row];
  bool tiers_match = true;
  for (const Row& row : rows) {
    if (row.tier && !results_match(stripped.result, row.result)) {
      obs::log(obs::LogLevel::kError,
               "FATAL: '%s' changed the optimization results (determinism "
               "violation)",
               row.name.c_str());
      tiers_match = false;
    }
  }

  // Overheads are against the stripped loop, so kernel rows leave them
  // blank.
  util::Table table;
  table.add_column("config", util::Table::Align::kLeft);
  for (const char* column : {"accept rate", "seconds", "proposals/s",
                             "overhead %", "min %", "max %"}) {
    table.add_column(column);
  }
  std::vector<PairedOverhead> overheads(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    table.begin_row();
    table.cell(row.name);
    table.cell(row.acceptance_rate(), 4);
    table.cell(row.best(), 4);
    table.cell(row.proposals_per_sec(), 0);
    if (row.tier) {
      overheads[i] = paired_overhead(row.seconds, stripped.seconds);
      table.cell(overheads[i].median_pct, 2);
      table.cell(overheads[i].min_pct, 2);
      table.cell(overheads[i].max_pct, 2);
    }
  }
  table.print();
  const double off_overhead = overheads[stripped_row + 1].median_pct;
  const bool off_path_ok = off_overhead < gate_pct;

  // Multistart: one runner, run on fresh problems under two protocols.
  core::Runner runner = [&g](core::Problem& p, std::uint64_t slice,
                             util::Rng& r, const obs::Recorder& recorder) {
    core::Figure1Options options;
    options.budget = slice;
    options.recorder = &recorder;
    return core::run_figure1(p, *g, options, r);
  };
  auto run_multistart = [&](const Instance& inst, const Protocol& protocol,
                            unsigned threads,
                            const obs::Recorder* recorder) {
    auto problem = make_problem(inst);
    core::ParallelMultistartOptions options;
    options.multistart.total_budget = protocol.total;
    options.multistart.budget_per_start = protocol.per_start();
    options.multistart.recorder = recorder;
    options.num_threads = threads;
    util::Rng rng{protocol.seed};
    return core::parallel_multistart(problem, runner, options, rng);
  };

  // The thread sweep: 100 restarts of at most 400k ticks in all.
  const Protocol sweep{std::min(proposals, std::uint64_t{400'000}), 100,
                       bench::kSeed + 4};
  std::vector<SweepPoint> points;
  bool parallel_identical = true;
  for (const Instance& inst : instances) {
    const std::size_t first = points.size();
    for (const unsigned threads : {1U, 2U, 4U, 8U}) {
      util::Stopwatch watch;
      auto result = run_multistart(inst, sweep, threads, nullptr);
      const double seconds = watch.seconds();
      const double speedup =
          threads == 1 ? 1.0 : points[first].seconds / seconds;
      if (threads > 1 && !multistart_match(points[first].result, result)) {
        obs::log(obs::LogLevel::kError,
                 "FATAL: %s: %u-thread aggregate differs from 1-thread "
                 "aggregate (determinism violation)",
                 inst.label, threads);
        parallel_identical = false;
      }
      points.push_back({&inst, threads, seconds, speedup, std::move(result)});
    }
  }

  util::Table sweep_table;
  sweep_table.add_column("multistart", util::Table::Align::kLeft);
  sweep_table.add_column("threads");
  sweep_table.add_column("seconds");
  sweep_table.add_column("proposals/s");
  sweep_table.add_column("speedup");
  sweep_table.add_column("efficiency");
  for (const SweepPoint& p : points) {
    sweep_table.begin_row();
    sweep_table.cell(p.inst->label);
    sweep_table.cell(static_cast<long long>(p.threads));
    sweep_table.cell(p.seconds, 3);
    sweep_table.cell(
        static_cast<double>(p.result.aggregate.proposals) / p.seconds, 0);
    sweep_table.cell(p.speedup, 2);
    sweep_table.cell(p.speedup / p.threads, 2);
  }
  std::printf("\n");
  sweep_table.print();

  // Traced and profiled runs on GOLA 15/150: 50 restarts of at most 200k
  // ticks in all, untraced at 1 thread and traced at 1 and 8 threads.
  const Protocol traced{std::min(proposals, std::uint64_t{200'000}), 50,
                        bench::kSeed + 21};
  obs::VectorSink events1;
  obs::VectorSink events8;
  auto run_traced = [&](unsigned threads, obs::VectorSink& events) {
    const obs::Recorder recorder{&events, /*collect_metrics=*/true,
                                 /*trace_sample=*/16, /*run=*/0,
                                 /*collect_profile=*/true};
    return run_multistart(gola15, traced, threads, &recorder);
  };
  const auto untraced1 = run_multistart(gola15, traced, 1, nullptr);
  const auto traced1 = run_traced(1, events1);
  const auto traced8 = run_traced(8, events8);
  const std::size_t parallel_events = events8.events().size();

  struct Check {
    const char* key;
    const char* what;
    bool ok;
  };
  const std::vector<Check> checks{
      {"off_path_ok", "off-path overhead under the gate", off_path_ok},
      {"trajectory_identical", "every rep reproduces its warmup run",
       reps_identical},
      {"tiers_match_stripped", "every tier reproduces the stripped loop",
       tiers_match},
      {"parallel_identical", "multistart equal at 1, 2, 4 and 8 threads",
       parallel_identical},
      {"traced_parallel_bit_identical",
       "traced 8-thread multistart equals untraced 1-thread",
       multistart_match(untraced1, traced8)},
      {"registry_snapshots_identical",
       "8- and 1-thread deterministic exports equal",
       traced1.aggregate.metrics.to_json(/*deterministic_only=*/true) ==
           traced8.aggregate.metrics.to_json(/*deterministic_only=*/true)}};
  bool gate_ok = true;
  for (const Check& check : checks) {
    if (!check.ok) {
      obs::log(obs::LogLevel::kError, "FATAL: check failed: %s", check.what);
    }
    gate_ok = gate_ok && check.ok;
  }

  std::string json = "{\n  \"bench\": \"hotloop\",\n";
  auto field = [&json](const char* key, const std::string& value) {
    json += std::string{"  \""} + key + "\": " + value + ",\n";
  };
  auto flag = [&field](const char* key, bool value) {
    field(key, value ? "true" : "false");
  };
  field("seed", std::to_string(bench::kSeed));
  field("proposals", std::to_string(proposals));
  field("reps", std::to_string(reps));
  field("hardware_concurrency", std::to_string(hw));
  field("gate_pct", std::to_string(gate_pct));
  field("off_overhead_pct", std::to_string(off_overhead));
  field("total_budget", std::to_string(sweep.total));
  field("budget_per_start", std::to_string(sweep.per_start()));
  field("trace_events_in_parallel_check", std::to_string(parallel_events));
  for (const Check& check : checks) flag(check.key, check.ok);
  flag("gate_ok", gate_ok);
  json += "  \"configs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    char buf[384];
    int len = std::snprintf(
        buf, sizeof buf,
        "    {\"name\": \"%s\", \"acceptance_rate\": %.4f, "
        "\"seconds\": %.6f, \"proposals_per_sec\": %.1f",
        row.name.c_str(), row.acceptance_rate(), row.best(),
        row.proposals_per_sec());
    if (row.tier) {
      std::snprintf(buf + len, sizeof buf - len,
                    ", \"overhead_pct\": %.3f, \"overhead_pct_min\": %.3f, "
                    "\"overhead_pct_max\": %.3f",
                    overheads[i].median_pct, overheads[i].min_pct,
                    overheads[i].max_pct);
    }
    json += std::string{buf} + (i + 1 < rows.size() ? "},\n" : "}\n");
  }
  json += "  ],\n  \"multistart\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    char buf[384];
    std::snprintf(buf, sizeof buf,
                  "    {\"instance\": \"%s\", \"threads\": %u, "
                  "\"seconds\": %.6f, \"proposals_per_sec\": %.1f, "
                  "\"speedup\": %.3f, \"efficiency\": %.3f, "
                  "\"restarts\": %llu, \"best_cost\": %.1f}%s\n",
                  p.inst->label, p.threads, p.seconds,
                  static_cast<double>(p.result.aggregate.proposals) /
                      p.seconds,
                  p.speedup, p.speedup / p.threads,
                  static_cast<unsigned long long>(p.result.restarts),
                  p.result.aggregate.best_cost,
                  i + 1 < points.size() ? "," : "");
    json += buf;
  }
  json += "  ]\n}\n";
  driver.write_json("BENCH_hotloop", json);
  driver.finish();

  std::printf("\nOff-path overhead %.2f%% (gate <%.2f%%); %zu trace events in "
              "the traced 8-thread run.\n",
              off_overhead, gate_pct, parallel_events);
  for (const Check& check : checks) {
    std::printf("%-52s %s\n", check.what, check.ok ? "PASS" : "FAIL");
  }
  return gate_ok ? 0 : 1;
}
