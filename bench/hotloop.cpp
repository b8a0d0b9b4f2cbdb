// Proposal hot-loop throughput — the speculative-evaluation perf gate.
//
// The speculative path (core::EvalPath::kSpeculative) makes a rejected
// proposal (nearly) free: propose() evaluates the candidate into per-move
// scratch and reject() only clears it, where the apply-undo path applies
// the move and replays the full inverse.  This driver prices that on two
// workloads:
//
//  1. A stripped Metropolis kernel with a *fixed* uphill-accept
//     probability, swept from always-reject to always-accept, so the
//     speedup is measured as a function of acceptance rate.  The kernel
//     owns its acceptance draws and streams them from Rng::next_block —
//     the block-draw API this PR added — in 256-word blocks; pair draws
//     stay inside propose(), so both evaluation paths consume identical
//     RNG streams and every legacy/speculative pair must agree exactly
//     (final cost, accept count, final arrangement) or the driver fails.
//  2. The hand-stripped Figure 1 loop (bench/figure1_stripped.hpp) — the
//     committed baseline the observability benches time — run once per
//     evaluation path with bench::stripped_results_match enforcing
//     bit-identical results.  Its whole-run acceptance rate is reported
//     alongside its speedup; the hard "≥ gate× at ≤10% acceptance" gate
//     binds on every row whose *measured* acceptance is ≤10% (always
//     including the p_up=0 kernel rows).
//
// The driver also re-checks determinism where the speculation journal
// could plausibly leak state: an 8-thread parallel multistart over
// speculative-path clones must match the 1-thread run, and the
// apply-undo multistart, exactly.
//
// Results land in BENCH_hotloop.json via bench::write_json_report and are
// gated against the committed baseline by tools/bench_compare.py.
//
// Flags: --proposals N    proposals per timed kernel run (default 2'000'000)
//        --reps N         timed repetitions per config, best-of (default 5)
//        --gate-speedup X minimum speculative speedup at <=10% acceptance
//                         (default 1.5)
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/figure1.hpp"
#include "core/gfunction.hpp"
#include "core/multistart.hpp"
#include "core/parallel.hpp"
#include "core/problem.hpp"
#include "figure1_stripped.hpp"
#include "linarr/problem.hpp"
#include "netlist/generator.hpp"
#include "obs/log.hpp"
#include "obs/perfcount.hpp"
#include "obs/profiler.hpp"
#include "util/args.hpp"
#include "util/budget.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace mcopt;

/// What one kernel run produces; every legacy/speculative pair must agree
/// on all of it.
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

/// One acceptance-swept row: both paths timed best-of-reps on the same
/// streams, with exact-agreement enforcement per rep.
struct KernelRow {
  std::string name;
  double acceptance_rate = 0.0;
  double legacy_proposals_per_sec = 0.0;
  double spec_proposals_per_sec = 0.0;
  double speedup = 0.0;
  /// Hardware counts of the fastest rep per path (all zero when counters
  /// are unavailable) — the microarchitectural attribution of the speedup.
  obs::PerfCounts legacy_perf;
  obs::PerfCounts spec_perf;
};

/// Counter deltas around one timed region; zeros when unavailable.
class ScopedPerfSample {
 public:
  explicit ScopedPerfSample(const obs::PerfCounterGroup& group)
      : group_(group), live_(group.read(&begin_)) {}
  [[nodiscard]] obs::PerfCounts finish() const {
    obs::PerfCounts end;
    if (!live_ || !group_.read(&end)) return obs::PerfCounts{};
    return obs::perf_delta(begin_, end);
  }

 private:
  const obs::PerfCounterGroup& group_;
  obs::PerfCounts begin_;
  bool live_;
};

/// True when `which` is among the counters that opened; a derived field
/// is reported only when every counter it is computed from did.
bool opened(const std::vector<obs::PerfCounter>& open,
            obs::PerfCounter which) {
  return std::find(open.begin(), open.end(), which) != open.end();
}

/// One "perf_<counter>_available" field per counter of the menu, so a
/// report says which counters opened instead of one flag for the group.
std::string perf_availability_fields(
    const std::vector<obs::PerfCounter>& open) {
  std::string out;
  for (const obs::PerfCounter which : obs::all_perf_counters()) {
    std::string name = obs::perf_counter_name(which);
    std::replace(name.begin(), name.end(), '-', '_');
    out += "  \"perf_" + name + "_available\": " +
           (opened(open, which) ? "true" : "false") + ",\n";
  }
  return out;
}

/// The informational per-path JSON fields bench_compare.py never gates —
/// IPC, cache-miss rate, cycles per proposal — as `"key": value` pairs
/// joined by ", ".  A field whose inputs never opened is left out, not
/// written as 0; the result is empty when none can be computed.
std::string perf_fields(const char* prefix, const obs::PerfCounts& counts,
                        std::uint64_t proposals,
                        const std::vector<obs::PerfCounter>& open) {
  std::string out;
  char buf[96];
  auto add = [&](const char* field, double value, int precision) {
    std::snprintf(buf, sizeof buf, "%s\"%s_%s\": %.*f",
                  out.empty() ? "" : ", ", prefix, field, precision, value);
    out += buf;
  };
  using obs::PerfCounter;
  if (opened(open, PerfCounter::kCycles) &&
      opened(open, PerfCounter::kInstructions)) {
    add("ipc", obs::perf_ipc(counts), 4);
  }
  if (opened(open, PerfCounter::kCacheReferences) &&
      opened(open, PerfCounter::kCacheMisses)) {
    add("cache_miss_rate", obs::perf_cache_miss_rate(counts), 4);
  }
  if (opened(open, PerfCounter::kCycles) && proposals > 0) {
    add("cycles_per_proposal",
        static_cast<double>(counts.cycles) / static_cast<double>(proposals),
        1);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args{argc, argv};
  const auto unknown =
      args.unknown_flags({"proposals", "reps", "gate-speedup"});
  if (!unknown.empty() || !args.positional().empty()) {
    obs::log(obs::LogLevel::kError,
             "usage: %s [--proposals N] [--reps N] [--gate-speedup X]",
             args.program().c_str());
    return 2;
  }
  const long long proposals_flag = args.get_int("proposals", 2'000'000);
  const long long reps_flag = args.get_int("reps", 5);
  const double gate_speedup = args.get_double("gate-speedup", 1.5);
  if (proposals_flag < 1 || reps_flag < 1 || gate_speedup <= 0.0) {
    obs::log(obs::LogLevel::kError, "%s: flags must be positive",
             args.program().c_str());
    return 2;
  }
  const auto proposals = static_cast<std::uint64_t>(proposals_flag);
  const auto reps = static_cast<std::size_t>(reps_flag);

  char gate_buf[32];
  std::snprintf(gate_buf, sizeof gate_buf, "%.2f", gate_speedup);
  bench::print_header(
      "Proposal hot-loop throughput (speculative vs apply-undo)",
      "fixed-acceptance Metropolis kernel + stripped Figure 1; best-of-reps; "
      "gate: speculative >= " +
          std::string{gate_buf} + "x at <=10% acceptance");

  util::Rng gen_small{util::derive_seed(bench::kSeed, 15)};
  util::Rng gen_large{util::derive_seed(bench::kSeed, 60)};
  std::vector<Instance> instances;
  instances.push_back(
      {"15/150", 15,
       netlist::random_gola(netlist::GolaParams{15, 150}, gen_small)});
  instances.push_back(
      {"60/600", 60,
       netlist::random_gola(netlist::GolaParams{60, 600}, gen_large)});

  auto make_problem = [&](const Instance& inst, core::EvalPath path) {
    util::Rng start_rng{util::derive_seed(bench::kSeed + 3, inst.cells)};
    return linarr::LinArrProblem{
        inst.nl, linarr::Arrangement::random(inst.cells, start_rng),
        linarr::MoveKind::kPairwiseInterchange, linarr::Objective::kDensity,
        path};
  };

  // Hardware counters for the timed regions; the sweep attributes the
  // speculative speedup to IPC / cache behaviour when the platform allows
  // self-monitoring, and degrades to zero-valued informational fields when
  // it does not (CI's asserted path).
  const obs::PerfCounterGroup perf{obs::all_perf_counters()};
  if (!perf.available()) {
    obs::log(obs::LogLevel::kInfo, "perf counters unavailable: %s",
             perf.unavailable_reason().c_str());
  }

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
      bool have_reference = false;
      double legacy_best = 1e300;
      double spec_best = 1e300;
      for (const core::EvalPath path :
           {core::EvalPath::kApplyUndo, core::EvalPath::kSpeculative}) {
        for (std::size_t rep = 0; rep < reps; ++rep) {
          auto problem = make_problem(inst, path);
          util::Rng move_rng = util::Rng::split(bench::kSeed + 9, inst.cells);
          util::Rng accept_rng =
              util::Rng::split(bench::kSeed + 11, inst.cells);
          const ScopedPerfSample sample{perf};
          util::Stopwatch watch;
          const KernelResult result = run_kernel(problem, proposals, p_uphill,
                                                 move_rng, accept_rng);
          const double seconds = watch.seconds();
          const obs::PerfCounts counts = sample.finish();
          if (!have_reference) {
            reference = result;
            have_reference = true;
          } else if (!(result == reference)) {
            obs::log(obs::LogLevel::kError,
                     "FATAL: '%s' diverged between evaluation paths "
                     "(determinism violation)",
                     row.name.c_str());
            trajectory_identical = false;
          }
          if (path == core::EvalPath::kApplyUndo) {
            if (seconds < legacy_best) row.legacy_perf = counts;
            legacy_best = std::min(legacy_best, seconds);
          } else {
            if (seconds < spec_best) row.spec_perf = counts;
            spec_best = std::min(spec_best, seconds);
          }
        }
      }
      row.acceptance_rate =
          static_cast<double>(reference.accepts) /
          static_cast<double>(proposals);
      row.legacy_proposals_per_sec =
          static_cast<double>(proposals) / legacy_best;
      row.spec_proposals_per_sec = static_cast<double>(proposals) / spec_best;
      row.speedup = legacy_best / spec_best;
      rows.push_back(row);
    }
  }

  // Stripped Figure 1: the committed pre-PR baseline loop, once per path.
  const auto g = core::make_g(core::GClass::kSixTempAnnealing);
  core::Figure1Options fig_options;
  fig_options.budget = proposals;
  core::RunResult fig_reference;
  double fig_legacy_best = 1e300;
  double fig_spec_best = 1e300;
  obs::PerfCounts fig_legacy_perf;
  obs::PerfCounts fig_spec_perf;
  bool have_fig_reference = false;
  for (const core::EvalPath path :
       {core::EvalPath::kApplyUndo, core::EvalPath::kSpeculative}) {
    for (std::size_t rep = 0; rep < reps; ++rep) {
      auto problem = make_problem(instances[0], path);
      util::Rng rng{bench::kSeed + 9};
      const ScopedPerfSample sample{perf};
      util::Stopwatch watch;
      const core::RunResult result =
          bench::run_figure1_stripped(problem, *g, fig_options, rng);
      const double seconds = watch.seconds();
      const obs::PerfCounts counts = sample.finish();
      if (!have_fig_reference) {
        fig_reference = result;
        have_fig_reference = true;
      } else if (!bench::stripped_results_match(fig_reference, result)) {
        obs::log(obs::LogLevel::kError,
                 "FATAL: stripped Figure 1 diverged between evaluation "
                 "paths (determinism violation)");
        trajectory_identical = false;
      }
      if (path == core::EvalPath::kApplyUndo) {
        if (seconds < fig_legacy_best) fig_legacy_perf = counts;
        fig_legacy_best = std::min(fig_legacy_best, seconds);
      } else {
        if (seconds < fig_spec_best) fig_spec_perf = counts;
        fig_spec_best = std::min(fig_spec_best, seconds);
      }
    }
  }
  const double fig_acceptance =
      static_cast<double>(fig_reference.accepts) /
      static_cast<double>(fig_reference.proposals);
  const double fig_speedup = fig_legacy_best / fig_spec_best;

  // Parallel determinism: speculative clones across 8 workers must match
  // the 1-thread run and the apply-undo engine exactly.
  core::Runner runner = [&g](core::Problem& p, std::uint64_t slice,
                             util::Rng& r, const obs::Recorder& recorder) {
    core::Figure1Options options;
    options.budget = slice;
    options.recorder = &recorder;
    return core::run_figure1(p, *g, options, r);
  };
  const std::uint64_t ms_budget = std::min<std::uint64_t>(proposals, 200'000);
  auto run_multistart = [&](core::EvalPath path, unsigned threads) {
    auto problem = make_problem(instances[0], path);
    core::ParallelMultistartOptions options;
    options.multistart.total_budget = ms_budget;
    options.multistart.budget_per_start =
        ms_budget / 50 == 0 ? 1 : ms_budget / 50;
    options.num_threads = threads;
    util::Rng rng{bench::kSeed + 21};
    return core::parallel_multistart(problem, runner, options, rng);
  };
  const auto spec_t1 = run_multistart(core::EvalPath::kSpeculative, 1);
  const auto spec_t8 = run_multistart(core::EvalPath::kSpeculative, 8);
  const auto legacy_t1 = run_multistart(core::EvalPath::kApplyUndo, 1);
  auto multistart_equal = [](const core::MultistartResult& a,
                             const core::MultistartResult& b) {
    return a.restarts == b.restarts &&
           a.restart_best_costs == b.restart_best_costs &&
           a.aggregate.best_cost == b.aggregate.best_cost &&
           a.aggregate.final_cost == b.aggregate.final_cost &&
           a.aggregate.best_state == b.aggregate.best_state &&
           a.aggregate.proposals == b.aggregate.proposals &&
           a.aggregate.accepts == b.aggregate.accepts;
  };
  const bool parallel_identical = multistart_equal(spec_t1, spec_t8) &&
                                  multistart_equal(spec_t1, legacy_t1);
  if (!parallel_identical) {
    obs::log(obs::LogLevel::kError,
             "FATAL: parallel multistart results diverged across thread "
             "counts or evaluation paths (determinism violation)");
  }

  util::Table table;
  table.add_column("config", util::Table::Align::kLeft);
  table.add_column("accept rate");
  table.add_column("legacy p/s");
  table.add_column("spec p/s");
  table.add_column("speedup");
  for (const KernelRow& row : rows) {
    table.begin_row();
    table.cell(row.name);
    table.cell(row.acceptance_rate, 4);
    table.cell(row.legacy_proposals_per_sec, 0);
    table.cell(row.spec_proposals_per_sec, 0);
    table.cell(row.speedup, 3);
  }
  table.begin_row();
  table.cell("figure1 stripped 15/150");
  table.cell(fig_acceptance, 4);
  table.cell(static_cast<double>(fig_reference.proposals) / fig_legacy_best,
             0);
  table.cell(static_cast<double>(fig_reference.proposals) / fig_spec_best, 0);
  table.cell(fig_speedup, 3);
  table.print();

  // The gate: every low-acceptance configuration (<=10% measured) must hit
  // the target speedup, and all identity checks must hold.
  bool low_acceptance_fast = fig_acceptance <= 0.10
                                 ? fig_speedup >= gate_speedup
                                 : true;
  for (const KernelRow& row : rows) {
    if (row.acceptance_rate <= 0.10 && row.speedup < gate_speedup) {
      low_acceptance_fast = false;
    }
  }
  const bool gate_ok =
      low_acceptance_fast && trajectory_identical && parallel_identical;

  std::string json = "{\n  \"bench\": \"hotloop\",\n";
  json += "  \"seed\": " + std::to_string(bench::kSeed) + ",\n";
  json += "  \"proposals\": " + std::to_string(proposals) + ",\n";
  json += "  \"reps\": " + std::to_string(reps) + ",\n";
  json += "  \"gate_speedup\": " + std::to_string(gate_speedup) + ",\n";
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "  \"figure1_acceptance_rate\": %.4f,\n"
                "  \"figure1_legacy_proposals_per_sec\": %.1f,\n"
                "  \"figure1_spec_proposals_per_sec\": %.1f,\n"
                "  \"figure1_speedup\": %.3f,\n",
                fig_acceptance,
                static_cast<double>(fig_reference.proposals) / fig_legacy_best,
                static_cast<double>(fig_reference.proposals) / fig_spec_best,
                fig_speedup);
  json += buf;
  // Informational hardware-counter attribution (never gated): why the
  // speculative path is faster, not just how much.
  const std::vector<obs::PerfCounter> open = perf.active_counters();
  json += perf_availability_fields(open);
  json += "  \"perf_unavailable_reason\": \"" +
          (perf.available() ? std::string{} : perf.unavailable_reason()) +
          "\",\n";
  for (const auto& [prefix, counts] :
       {std::pair{"figure1_legacy", fig_legacy_perf},
        std::pair{"figure1_spec", fig_spec_perf}}) {
    const std::string fields =
        perf_fields(prefix, counts, fig_reference.proposals, open);
    if (!fields.empty()) json += "  " + fields + ",\n";
  }
  json += std::string{"  \"trajectory_identical\": "} +
          (trajectory_identical ? "true" : "false") + ",\n";
  json += std::string{"  \"parallel_identical\": "} +
          (parallel_identical ? "true" : "false") + ",\n";
  json += std::string{"  \"gate_ok\": "} + (gate_ok ? "true" : "false") +
          ",\n";
  json += "  \"configs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const KernelRow& row = rows[i];
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"acceptance_rate\": %.4f, "
                  "\"legacy_proposals_per_sec\": %.1f, "
                  "\"spec_proposals_per_sec\": %.1f, \"speedup\": %.3f",
                  row.name.c_str(), row.acceptance_rate,
                  row.legacy_proposals_per_sec, row.spec_proposals_per_sec,
                  row.speedup);
    json += buf;
    for (const auto& [prefix, counts] :
         {std::pair{"legacy", row.legacy_perf},
          std::pair{"spec", row.spec_perf}}) {
      const std::string fields = perf_fields(prefix, counts, proposals, open);
      if (!fields.empty()) json += ",\n     " + fields;
    }
    json += std::string{"}"} + (i + 1 < rows.size() ? "," : "") + "\n";
  }
  json += "  ]\n}\n";
  bench::write_json_report("BENCH_hotloop", json);

  std::printf(
      "\nFigure 1 stripped: %.3fx speculative speedup at %.1f%% acceptance "
      "(gate: >=%.2fx at <=10%%) — %s.\n"
      "Path/thread determinism: %s.\n",
      fig_speedup, 100.0 * fig_acceptance, gate_speedup,
      gate_ok ? "PASS" : "FAIL",
      trajectory_identical && parallel_identical ? "bit-identical"
                                                 : "MISMATCH");
  if (!gate_ok) return 1;
  return 0;
}
