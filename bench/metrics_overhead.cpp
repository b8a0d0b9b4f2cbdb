// Metrics/profiler overhead — extends the obs_overhead <1% contract to the
// aggregation layer added for the registry work.
//
// The new instrumentation (proposal-mix counters, uphill-Δ histograms, the
// hierarchical profiler's scope stack) rides the same Recorder fast path
// as the trace layer, so the off-path guarantee must not move: compiling
// it all into the Figure 1 hot loop still costs <1% in proposals/sec when
// no recorder is installed, measured against the hand-stripped loop in
// bench/figure1_stripped.hpp.  The driver then prices each new tier when
// on (metrics + histograms, and metrics + profiler).
//
// It also enforces the registry determinism criterion directly: the
// deterministic exports (registry JSON, Prometheus exposition, and the
// wall-free profile tree) of an 8-thread parallel multistart must be
// byte-identical to the 1-thread run's.
//
// Methodology: one untimed warmup pass over all tiers, then best-of-reps
// with reps interleaved across tiers (not tier-by-tier) so machine drift
// cannot skew the comparison.  Each tier's overhead_pct is the median of
// its paired per-rep ratios against the baseline (the gate reads it);
// overhead_pct_min/_median/_max give their spread.
//
// Results land in BENCH_metrics.json via bench::write_json_report.
//
// Flags: --budget T   ticks per timed run (default 2'000'000)
//        --reps N     timed repetitions per config, best-of (default 5)
//        --gate-pct P max allowed off-vs-baseline regression (default 1.0)
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/figure1.hpp"
#include "core/gfunction.hpp"
#include "core/multistart.hpp"
#include "core/parallel.hpp"
#include "figure1_stripped.hpp"
#include "linarr/problem.hpp"
#include "netlist/generator.hpp"
#include "obs/log.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"
#include "util/args.hpp"
#include "util/budget.hpp"
#include "util/table.hpp"

namespace {

using namespace mcopt;

struct ConfigTiming {
  std::string name;
  double best_seconds = 0.0;
  double proposals_per_sec = 0.0;
  bench::PairedOverhead overhead;  // vs the stripped baseline
};

/// The deterministic export bundle compared across thread counts.
struct Snapshot {
  std::string registry_json;
  std::string prometheus;
  std::string profile_json;
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
  const util::Args args{argc, argv};
  const auto unknown = args.unknown_flags({"budget", "reps", "gate-pct"});
  if (!unknown.empty() || !args.positional().empty()) {
    obs::log(obs::LogLevel::kError,
             "usage: %s [--budget T] [--reps N] [--gate-pct P]",
             args.program().c_str());
    return 2;
  }
  const long long budget_flag = args.get_int("budget", 2'000'000);
  const long long reps_flag = args.get_int("reps", 5);
  const double gate_pct = args.get_double("gate-pct", 1.0);
  if (budget_flag < 1 || reps_flag < 1 || gate_pct <= 0.0) {
    obs::log(obs::LogLevel::kError, "%s: flags must be positive",
             args.program().c_str());
    return 2;
  }
  const auto budget = static_cast<std::uint64_t>(budget_flag);
  const auto reps = static_cast<std::size_t>(reps_flag);

  char gate_buf[32];
  std::snprintf(gate_buf, sizeof gate_buf, "%.2f", gate_pct);
  bench::print_header(
      "Metrics registry / profiler overhead",
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

  auto timed_run = [&](const core::Figure1Options& options, bool stripped,
                       core::RunResult* out) {
    auto problem = make_problem();
    util::Rng rng{bench::kSeed + 9};
    util::Stopwatch watch;
    core::RunResult result =
        stripped ? bench::run_figure1_stripped(problem, *g, options, rng)
                 : core::run_figure1(problem, *g, options, rng);
    const double seconds = watch.seconds();
    if (out != nullptr) *out = result;
    return seconds;
  };

  core::RunResult reference;
  timed_run(base_options, /*stripped=*/true, &reference);

  const obs::Recorder metrics_hist{nullptr, /*collect_metrics=*/true};
  const obs::Recorder metrics_profile{nullptr, /*collect_metrics=*/true,
                                      /*trace_sample=*/1, /*run=*/0,
                                      /*collect_profile=*/true};

  struct Tier {
    const char* name;
    bool stripped;
    const obs::Recorder* recorder;
  };
  const std::vector<Tier> tiers{
      {"baseline (stripped loop)", true, nullptr},
      {"off (no recorder)", false, nullptr},
      {"metrics + histograms", false, &metrics_hist},
      {"metrics + profiler", false, &metrics_profile},
  };

  // Rep 0 is an untimed warmup of every tier (first-touch allocation,
  // i-cache, frequency ramp); timed reps then interleave across tiers so
  // slow machine drift lands evenly on all configs instead of biasing
  // whichever tier happens to run last.  The old per-tier outer loop made
  // the stripped baseline absorb all the cold-start cost and could report
  // *negative* overhead for the instrumented tiers.  Overheads come from
  // the *paired* per-rep ratio against the baseline run of the same rep
  // (bench::paired_overhead).  The median ratio is the reported overhead:
  // unlike a minimum it is not biased low when a baseline rep eats a noise
  // spike, and unlike a mean it shrugs off a single bad rep of the
  // measured tier.  The min and max ratios are reported beside it, so a
  // reader can see how much of the median is noise.
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
      if (!bench::stripped_results_match(reference, result)) {
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
    timings[i].overhead = bench::paired_overhead(rep_seconds[i], rep_seconds[0]);
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

  // Registry determinism: the deterministic exports of a profiled 8-thread
  // parallel multistart must match the 1-thread run byte for byte.
  core::Runner runner = [&g](core::Problem& p, std::uint64_t slice,
                             util::Rng& r, const obs::Recorder& recorder) {
    core::Figure1Options options;
    options.budget = slice;
    options.recorder = &recorder;
    return core::run_figure1(p, *g, options, r);
  };
  const std::uint64_t ms_budget = std::min<std::uint64_t>(budget, 200'000);

  auto run_multistart = [&](unsigned threads) {
    auto problem = make_problem();
    core::ParallelMultistartOptions options;
    options.multistart.total_budget = ms_budget;
    options.multistart.budget_per_start =
        ms_budget / 50 == 0 ? 1 : ms_budget / 50;
    options.multistart.recorder = &metrics_profile;
    options.num_threads = threads;
    util::Rng rng{bench::kSeed + 21};
    return core::parallel_multistart(problem, runner, options, rng);
  };

  const auto t1 = run_multistart(1);
  const auto t8 = run_multistart(8);
  const Snapshot snap1 = export_snapshot(t1.aggregate.metrics);
  const Snapshot snap8 = export_snapshot(t8.aggregate.metrics);
  const bool snapshots_identical = snap1.registry_json == snap8.registry_json &&
                                   snap1.prometheus == snap8.prometheus &&
                                   snap1.profile_json == snap8.profile_json;
  if (!snapshots_identical) {
    obs::log(obs::LogLevel::kError,
             "FATAL: 8-thread registry/profile exports differ from 1-thread "
             "(determinism violation)");
  }

  std::string json = "{\n  \"bench\": \"metrics_overhead\",\n";
  json += "  \"seed\": " + std::to_string(bench::kSeed) + ",\n";
  json += "  \"budget\": " + std::to_string(budget) + ",\n";
  json += "  \"reps\": " + std::to_string(reps) + ",\n";
  json += "  \"gate_pct\": " + std::to_string(gate_pct) + ",\n";
  json += "  \"off_overhead_pct\": " + std::to_string(off_overhead) + ",\n";
  json += std::string{"  \"gate_ok\": "} + (gate_ok ? "true" : "false") +
          ",\n";
  json += std::string{"  \"registry_snapshots_identical\": "} +
          (snapshots_identical ? "true" : "false") + ",\n";
  json += "  \"configs\": [\n";
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const ConfigTiming& timing = timings[i];
    char buf[384];
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"seconds\": %.6f, "
                  "\"proposals_per_sec\": %.1f, \"overhead_pct\": %.3f, "
                  "\"overhead_pct_min\": %.3f, \"overhead_pct_median\": %.3f, "
                  "\"overhead_pct_max\": %.3f}%s\n",
                  timing.name.c_str(), timing.best_seconds,
                  timing.proposals_per_sec, timing.overhead.median_pct,
                  timing.overhead.min_pct, timing.overhead.median_pct,
                  timing.overhead.max_pct, i + 1 < timings.size() ? "," : "");
    json += buf;
  }
  json += "  ]\n}\n";
  bench::write_json_report("BENCH_metrics", json);

  std::printf(
      "\nOff-path overhead: %.2f%% (gate: <%.2f%%) — %s.\n"
      "8-thread vs 1-thread deterministic registry exports: %s.\n",
      off_overhead, gate_pct, gate_ok ? "PASS" : "FAIL",
      snapshots_identical ? "byte-identical" : "MISMATCH");
  if (!gate_ok || !snapshots_identical) return 1;
  return 0;
}
