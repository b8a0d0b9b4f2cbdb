// Recorder overhead — the price of each observability tier on the Figure 1
// loop, and the proof that observing a run never changes it.
//
// The contract (src/obs/recorder.hpp): every event method and every
// profile scope starts with an inlined `if (off_) return;`, so compiling
// the instrumentation into the Figure 1 hot loop must cost little in
// proposals/sec when no recorder is installed: at most --gate-pct (1% by
// default; CI passes 10% at its short budget).  This bench measures that
// directly against a hand-stripped copy of the
// same loop (run_stripped_figure1 below, held bit-identical in its results
// to the real one), then prices each tier when it *is* on: metrics
// (counters, uphill-delta histograms, observables), metrics + profiler,
// a ring-buffer trace and a sampled JSONL trace.
//
// It also enforces the two thread-count determinism criteria of the
// telemetry work on one parallel multistart workload:
//  - a traced and profiled 8-thread run is bit-identical in its final
//    results (aggregate counters, best state, per-restart history) to an
//    untraced 1-thread run;
//  - its deterministic exports (registry JSON, Prometheus text and the
//    wall-free profile tree) equal the same-recorder 1-thread run's, byte
//    for byte.
//
// Methodology: one untimed warmup pass over all tiers, then best-of-reps
// with reps interleaved across tiers (not tier-by-tier) so machine drift
// cannot skew the comparison.  Each tier's overhead_pct is the median of
// its paired per-rep ratios against the baseline (the gate reads it);
// overhead_pct_min/_max give their spread.
//
// Results land in BENCH_obs.json via bench::Driver::write_json.  Wall-clock
// numbers are hardware-dependent; the determinism checks are not.
//
// Flags: --budget T   ticks per timed run (default 2'000'000)
//        --reps N     timed repetitions per config, best-of (default 5)
//        --gate-pct P max allowed off-vs-baseline regression (default 1.0)
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/figure1.hpp"
#include "core/gfunction.hpp"
#include "core/multistart.hpp"
#include "core/parallel.hpp"
#include "linarr/problem.hpp"
#include "netlist/generator.hpp"
#include "obs/log.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/budget.hpp"
#include "util/invariant.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace mcopt;

/// core::run_figure1 exactly as it would look with no instrumentation
/// compiled in at all: the timing baseline of every tier.  Every timed run
/// is checked against it with results_match, so the two loops cannot drift
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

/// Paired per-rep overhead of a timed tier against the baseline run of the
/// same rep, in percent: 100 * (tier / baseline - 1).  Adjacent runs share
/// machine conditions, so drift cancels out of each ratio.  The median is
/// the reported (and gated) overhead; min and max show its noise floor.
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

struct ConfigTiming {
  std::string name;
  double best_seconds = 0.0;
  double proposals_per_sec = 0.0;
  PairedOverhead overhead;  // vs the stripped baseline
};

/// The deterministic export bundle compared across thread counts.
struct Snapshot {
  std::string registry_json;
  std::string prometheus;
  std::string profile_json;

  [[nodiscard]] bool operator==(const Snapshot&) const = default;
};

Snapshot export_snapshot(const obs::RunMetrics& metrics) {
  obs::MetricsRegistry registry;
  registry.populate_from_run(metrics);
  Snapshot snap;
  snap.registry_json = registry.to_json(/*deterministic_only=*/true);
  snap.prometheus = registry.to_prometheus(/*deterministic_only=*/true);
  snap.profile_json = metrics.profile.to_json(/*include_wall=*/false);
  return snap;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Driver driver{argc, argv, {"budget", "reps", "gate-pct"}};
  const std::uint64_t budget = driver.u64("budget", 2'000'000, 1);
  const std::size_t reps = driver.count("reps", 5, 1);
  const double gate_pct = driver.real("gate-pct", 1.0, 0.001);

  char gate_buf[32];
  std::snprintf(gate_buf, sizeof gate_buf, "%.2f", gate_pct);
  bench::print_header(
      "Observability overhead — Recorder cost per tier",
      "Figure 1, six-temperature annealing, GOLA 15/150; best-of-reps "
      "timings; off-path gate <" +
          std::string{gate_buf} + "% vs a hand-stripped loop");

  util::Rng gen_rng{util::derive_seed(bench::kSeed, 15)};
  const auto nl =
      netlist::random_gola(netlist::GolaParams{15, 150}, gen_rng);
  const auto g = core::make_g(core::GClass::kSixTempAnnealing);

  core::Figure1Options base_options;
  base_options.budget = budget;

  auto make_problem = [&]() {
    util::Rng start_rng{util::derive_seed(bench::kSeed + 3, 15)};
    return linarr::LinArrProblem{
        nl, linarr::Arrangement::random(15, start_rng)};
  };

  // Every timed run replays the same seed, so all configs do identical
  // work and their results must agree bit-for-bit.
  auto timed_run = [&](const core::Figure1Options& options, bool stripped,
                       core::RunResult* out) {
    auto problem = make_problem();
    util::Rng rng{bench::kSeed + 9};
    util::Stopwatch watch;
    core::RunResult result =
        stripped ? run_stripped_figure1(problem, *g, options, rng)
                 : core::run_figure1(problem, *g, options, rng);
    const double seconds = watch.seconds();
    if (out != nullptr) *out = result;
    return seconds;
  };

  core::RunResult reference;
  timed_run(base_options, /*stripped=*/true, &reference);

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
  const std::vector<Tier> tiers{
      {"baseline (stripped loop)", true, nullptr},
      {"off (no recorder)", false, nullptr},
      {"metrics only", false, &metrics},
      {"metrics + profiler", false, &metrics_profile},
      {"ring trace 64k + metrics", false, &ring_traced},
      {"jsonl 1/64 + metrics", false, &jsonl_sampled},
  };

  // Rep 0 is an untimed warmup of every tier (first-touch allocation,
  // i-cache, frequency ramp); timed reps then interleave across tiers so
  // slow machine drift lands evenly on all configs instead of biasing
  // whichever tier happens to run last.  The old per-tier outer loop made
  // the stripped baseline absorb all the cold-start cost and could report
  // *negative* overhead for the instrumented tiers.  Overheads come from
  // the *paired* per-rep ratio against the baseline run of the same rep
  // (paired_overhead).  The median ratio is the reported overhead: unlike
  // a minimum it is not biased low when a baseline rep eats a noise spike,
  // and unlike a mean it shrugs off a single bad rep of the measured tier.
  // The min and max ratios are reported beside it, so a reader can see how
  // much of the median is noise.
  std::vector<ConfigTiming> timings(tiers.size());
  std::vector<std::vector<double>> rep_seconds(
      tiers.size(), std::vector<double>(reps, 0.0));
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    timings[i].name = tiers[i].name;
  }
  for (std::size_t rep = 0; rep < reps + 1; ++rep) {
    const bool warmup = rep == 0;
    for (std::size_t i = 0; i < tiers.size(); ++i) {
      const Tier& tier = tiers[i];
      core::Figure1Options options = base_options;
      options.recorder = tier.recorder;
      core::RunResult result;
      const double seconds = timed_run(options, tier.stripped, &result);
      if (!results_match(reference, result)) {
        obs::log(obs::LogLevel::kError,
                 "FATAL: '%s' changed the optimization results "
                 "(determinism violation)",
                 tier.name);
        return 1;
      }
      if (!warmup) rep_seconds[i][rep - 1] = seconds;
    }
  }
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    const double best =
        *std::min_element(rep_seconds[i].begin(), rep_seconds[i].end());
    timings[i].best_seconds = best;
    timings[i].proposals_per_sec =
        best > 0.0 ? static_cast<double>(reference.proposals) / best : 0.0;
    timings[i].overhead = paired_overhead(rep_seconds[i], rep_seconds[0]);
  }

  util::Table table;
  table.add_column("config", util::Table::Align::kLeft);
  table.add_column("seconds");
  table.add_column("proposals/s");
  table.add_column("overhead %");
  table.add_column("min %");
  table.add_column("max %");
  for (const ConfigTiming& timing : timings) {
    table.begin_row();
    table.cell(timing.name);
    table.cell(timing.best_seconds, 4);
    table.cell(timing.proposals_per_sec, 0);
    table.cell(timing.overhead.median_pct, 2);
    table.cell(timing.overhead.min_pct, 2);
    table.cell(timing.overhead.max_pct, 2);
  }
  table.print();

  const double off_overhead = timings[1].overhead.median_pct;
  const bool gate_ok = off_overhead < gate_pct;

  // Thread-count determinism: one runner and one multistart option block,
  // run untraced at 1 thread and traced + profiled at 1 and 8 threads.
  core::Runner runner = [&g](core::Problem& p, std::uint64_t slice,
                             util::Rng& r, const obs::Recorder& recorder) {
    core::Figure1Options options;
    options.budget = slice;
    options.recorder = &recorder;
    return core::run_figure1(p, *g, options, r);
  };
  const std::uint64_t ms_budget = std::min<std::uint64_t>(budget, 200'000);
  core::ParallelMultistartOptions ms_options;
  ms_options.multistart.total_budget = ms_budget;
  ms_options.multistart.budget_per_start =
      ms_budget / 50 == 0 ? 1 : ms_budget / 50;

  auto run_multistart = [&](unsigned threads, obs::VectorSink* events) {
    auto problem = make_problem();
    const obs::Recorder traced{events, /*collect_metrics=*/true,
                               /*trace_sample=*/16, /*run=*/0,
                               /*collect_profile=*/true};
    core::ParallelMultistartOptions options = ms_options;
    if (events != nullptr) options.multistart.recorder = &traced;
    options.num_threads = threads;
    util::Rng rng{bench::kSeed + 21};
    return core::parallel_multistart(problem, runner, options, rng);
  };

  const auto untraced = run_multistart(1, nullptr);
  obs::VectorSink events1;
  obs::VectorSink events8;
  const auto traced1 = run_multistart(1, &events1);
  const auto traced8 = run_multistart(8, &events8);

  const bool determinism_ok =
      untraced.restarts == traced8.restarts &&
      untraced.restart_best_costs == traced8.restart_best_costs &&
      results_match(untraced.aggregate, traced8.aggregate);
  if (!determinism_ok) {
    obs::log(obs::LogLevel::kError,
             "FATAL: traced 8-thread multistart differs from untraced "
             "1-thread multistart (determinism violation)");
  }
  const bool snapshots_identical =
      export_snapshot(traced1.aggregate.metrics) ==
      export_snapshot(traced8.aggregate.metrics);
  if (!snapshots_identical) {
    obs::log(obs::LogLevel::kError,
             "FATAL: 8-thread registry/profile exports differ from 1-thread "
             "(determinism violation)");
  }
  const std::size_t parallel_events = events8.events().size();

  std::string json = "{\n  \"bench\": \"obs_overhead\",\n";
  json += "  \"seed\": " + std::to_string(bench::kSeed) + ",\n";
  json += "  \"budget\": " + std::to_string(budget) + ",\n";
  json += "  \"reps\": " + std::to_string(reps) + ",\n";
  json += "  \"gate_pct\": " + std::to_string(gate_pct) + ",\n";
  json += "  \"off_overhead_pct\": " + std::to_string(off_overhead) + ",\n";
  json += std::string{"  \"gate_ok\": "} + (gate_ok ? "true" : "false") +
          ",\n";
  json += std::string{"  \"traced_parallel_bit_identical\": "} +
          (determinism_ok ? "true" : "false") + ",\n";
  json += std::string{"  \"registry_snapshots_identical\": "} +
          (snapshots_identical ? "true" : "false") + ",\n";
  json += "  \"trace_events_in_parallel_check\": " +
          std::to_string(parallel_events) + ",\n";
  json += "  \"configs\": [\n";
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const ConfigTiming& timing = timings[i];
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"seconds\": %.6f, "
                  "\"proposals_per_sec\": %.1f, \"overhead_pct\": %.3f, "
                  "\"overhead_pct_min\": %.3f, \"overhead_pct_max\": %.3f}%s\n",
                  timing.name.c_str(), timing.best_seconds,
                  timing.proposals_per_sec, timing.overhead.median_pct,
                  timing.overhead.min_pct, timing.overhead.max_pct,
                  i + 1 < timings.size() ? "," : "");
    json += buf;
  }
  json += "  ]\n}\n";
  driver.write_json("BENCH_obs", json);
  driver.finish();

  std::printf(
      "\nOff-path overhead: %.2f%% (gate: <%.2f%%) — %s.\n"
      "Traced 8-thread multistart vs untraced 1-thread: %s "
      "(%zu events captured).\n"
      "8-thread vs 1-thread deterministic registry exports: %s.\n",
      off_overhead, gate_pct, gate_ok ? "PASS" : "FAIL",
      determinism_ok ? "bit-identical" : "MISMATCH", parallel_events,
      snapshots_identical ? "byte-identical" : "MISMATCH");
  if (!gate_ok || !determinism_ok || !snapshots_identical) return 1;
  return 0;
}
