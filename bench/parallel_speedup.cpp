// Throughput benchmark for the parallel multistart engine.
//
// Sweeps worker-thread counts against problem sizes, running the same
// restart workload (Figure 1 on a random GOLA instance) through
// core::parallel_multistart() and reporting proposals/sec, speedup over the
// single-thread run, and parallel efficiency.  Because the engine is
// bit-deterministic, the sweep doubles as an end-to-end check: every
// thread count must produce the identical aggregate, and the bench aborts
// loudly if one does not.
//
// Results are mirrored to BENCH_parallel.json (via bench::Driver::write_json)
// so future PRs have a machine-readable perf trajectory to regress against.
// Wall-clock numbers are hardware-dependent and excluded from determinism
// guarantees; everything else in the report is seed-pinned.
//
// Flags: --max-threads N (1..64, default 8) caps the thread sweep;
//        --budget T (default 400'000) total ticks per configuration.
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/figure1.hpp"
#include "core/parallel.hpp"
#include "linarr/problem.hpp"
#include "obs/log.hpp"
#include "netlist/generator.hpp"
#include "util/budget.hpp"
#include "util/table.hpp"

namespace {

struct SweepPoint {
  std::size_t cells = 0;
  unsigned threads = 0;
  double seconds = 0.0;
  double proposals_per_sec = 0.0;
  double speedup = 1.0;
  double efficiency = 1.0;
  mcopt::core::MultistartResult result;
};

bool aggregates_match(const mcopt::core::MultistartResult& a,
                      const mcopt::core::MultistartResult& b) {
  return a.restarts == b.restarts &&
         a.aggregate.best_cost == b.aggregate.best_cost &&
         a.aggregate.final_cost == b.aggregate.final_cost &&
         a.aggregate.proposals == b.aggregate.proposals &&
         a.aggregate.accepts == b.aggregate.accepts &&
         a.aggregate.ticks == b.aggregate.ticks &&
         a.aggregate.best_state == b.aggregate.best_state;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mcopt;

  bench::Driver driver{argc, argv, {"max-threads", "budget"}};
  const std::size_t max_threads = driver.count("max-threads", 8, 1, 64);
  const std::uint64_t budget = driver.u64("budget", 400'000, 1);

  bench::print_header(
      "Parallel multistart — threads x size throughput sweep",
      "Figure 1 restarts on random GOLA instances; identical aggregates "
      "required at every thread count");
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware_concurrency=%u (speedup is bounded by this)\n\n", hw);

  std::vector<unsigned> thread_counts{1};
  for (unsigned t = 2; t <= max_threads; t *= 2) {
    thread_counts.push_back(t);
  }

  // Problem sizes: the paper's 15-cell instances plus scaled-up variants so
  // the restart bodies are heavy enough to amortize pool overhead.
  struct SizeSpec {
    std::size_t cells;
    std::size_t nets;
  };
  const std::vector<SizeSpec> sizes{{15, 150}, {60, 600}};

  util::Table table;
  table.add_column("cells");
  table.add_column("threads");
  table.add_column("seconds");
  table.add_column("proposals/s");
  table.add_column("speedup");
  table.add_column("efficiency");

  std::vector<SweepPoint> points;
  const std::uint64_t total_budget = bench::scaled(budget);
  const std::uint64_t per_start = total_budget / 100 == 0
                                      ? 1
                                      : total_budget / 100;

  for (const auto& size : sizes) {
    util::Rng gen_rng{util::derive_seed(bench::kSeed, size.cells)};
    const auto nl = netlist::random_gola(
        netlist::GolaParams{size.cells, size.nets}, gen_rng);
    const auto g = core::make_g(core::GClass::kSixTempAnnealing);
    core::Runner runner = [&g](core::Problem& p, std::uint64_t budget,
                               util::Rng& r, const obs::Recorder& recorder) {
      core::Figure1Options options;
      options.budget = budget;
      options.recorder = &recorder;
      return core::run_figure1(p, *g, options, r);
    };

    // Copies, not pointers into `points`: push_back reallocates.
    mcopt::core::MultistartResult baseline_result;
    double baseline_seconds = 0.0;
    bool have_baseline = false;
    for (const unsigned threads : thread_counts) {
      util::Rng start_rng{util::derive_seed(bench::kSeed + 3, size.cells)};
      linarr::LinArrProblem problem{
          nl, linarr::Arrangement::random(size.cells, start_rng)};
      core::ParallelMultistartOptions options;
      options.multistart.total_budget = total_budget;
      options.multistart.budget_per_start = per_start;
      options.num_threads = threads;
      util::Rng rng{bench::kSeed + 4};

      util::Stopwatch watch;
      SweepPoint point;
      point.result = core::parallel_multistart(problem, runner, options, rng);
      point.seconds = watch.seconds();
      point.cells = size.cells;
      point.threads = threads;
      point.proposals_per_sec =
          point.seconds > 0.0
              ? static_cast<double>(point.result.aggregate.proposals) /
                    point.seconds
              : 0.0;
      points.push_back(point);
      SweepPoint& stored = points.back();
      if (!have_baseline) {
        baseline_result = stored.result;
        baseline_seconds = stored.seconds;
        have_baseline = true;
      } else {
        if (!aggregates_match(baseline_result, stored.result)) {
          obs::log(obs::LogLevel::kError,
                   "FATAL: %u-thread aggregate differs from 1-thread "
                   "aggregate (determinism violation)",
                   threads);
          return 1;
        }
        stored.speedup = stored.seconds > 0.0
                             ? baseline_seconds / stored.seconds
                             : 0.0;
        stored.efficiency = stored.speedup / threads;
      }

      table.begin_row();
      table.cell(static_cast<long long>(stored.cells));
      table.cell(static_cast<long long>(stored.threads));
      table.cell(stored.seconds, 3);
      table.cell(stored.proposals_per_sec, 0);
      table.cell(stored.speedup, 2);
      table.cell(stored.efficiency, 2);
    }
  }
  table.print();

  std::string json = "{\n  \"bench\": \"parallel_speedup\",\n";
  json += "  \"seed\": " + std::to_string(bench::kSeed) + ",\n";
  json += "  \"hardware_concurrency\": " + std::to_string(hw) + ",\n";
  json += "  \"total_budget\": " + std::to_string(total_budget) + ",\n";
  json += "  \"budget_per_start\": " + std::to_string(per_start) + ",\n";
  json += "  \"results\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "    {\"cells\": %zu, \"threads\": %u, \"seconds\": %.6f, "
                  "\"proposals_per_sec\": %.1f, \"speedup\": %.3f, "
                  "\"efficiency\": %.3f, \"restarts\": %llu, "
                  "\"best_cost\": %.1f}%s\n",
                  p.cells, p.threads, p.seconds, p.proposals_per_sec,
                  p.speedup, p.efficiency,
                  static_cast<unsigned long long>(p.result.restarts),
                  p.result.aggregate.best_cost,
                  i + 1 < points.size() ? "," : "");
    json += buf;
  }
  json += "  ]\n}\n";
  driver.write_json("BENCH_parallel", json);
  driver.finish();

  std::printf(
      "\nDeterminism: all thread counts produced identical aggregates.\n"
      "Speedup/efficiency are wall-clock measurements; they scale with the\n"
      "machine's core count (hardware_concurrency above) and are excluded\n"
      "from the bit-reproducibility contract.\n");
  return 0;
}
