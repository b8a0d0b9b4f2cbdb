// Shared harness for the table-reproduction benches.
//
// Time -> work calibration.  The paper ran on a VAX 11/780 and gave every
// method 6/9/12 seconds (Tables 4.1, 4.2(a), (c), (d)) or 3 minutes
// (Table 4.2(b)) per instance.  We replace wall-clock with deterministic
// tick budgets (one tick per proposal / descent evaluation).  The mapping
// 6 s ~= 600 ticks was calibrated empirically so the reproduction sits in
// the same regime as the paper's Table 4.1: the Goto construction ties the
// best Monte Carlo methods at the 6 s budget, every method is still
// climbing from 6 s to 12 s, and full convergence (where all g classes
// collapse to the same number) is several budgets away.  Table 4.2(b)'s
// 3 minutes maps to 30x the 6 s budget, by then deep in the converged
// regime — which is the paper's own observation there ("the performance of
// all 13 classes is about the same").  Set MCOPT_BENCH_SCALE to scale all
// budgets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/gfunction.hpp"
#include "core/result.hpp"
#include "core/tuner.hpp"
#include "linarr/problem.hpp"
#include "netlist/netlist.hpp"
#include "obs/heartbeat.hpp"
#include "obs/perfcount.hpp"
#include "obs/recorder.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace mcopt::bench {

/// Master seed for every bench; printed in the headers so EXPERIMENTS.md
/// numbers are attributable.
inline constexpr std::uint64_t kSeed = 1985;

/// Tick equivalents of the paper's budgets (before MCOPT_BENCH_SCALE).
inline constexpr std::uint64_t kSixSec = 600;
inline constexpr std::uint64_t kNineSec = 900;
inline constexpr std::uint64_t kTwelveSec = 1'200;
inline constexpr std::uint64_t kThreeMin = 18'000;
/// Tuning budget per (candidate, instance): the paper used about a 5 s run.
inline constexpr std::uint64_t kTuneBudget = 500;
/// Training-set size for the tuning pass (the paper used all 30).
inline constexpr std::size_t kTuneInstances = 30;

/// MCOPT_BENCH_SCALE (a finite number >= 0.01); 1.0 when unset or empty.
/// Any other value prints an error naming the variable and exits 2.
double bench_scale();

/// Budget scaled by bench_scale(), minimum 1 tick.  Exits 2, like a bad
/// MCOPT_BENCH_SCALE, when the scaled budget does not fit in 64 bits.
std::uint64_t scaled(std::uint64_t budget);

/// The 30-instance GOLA / NOLA test sets of §4.2.1 / §4.3.1.
std::vector<netlist::Netlist> gola_instances();
std::vector<netlist::Netlist> nola_instances();

/// Deterministic per-instance random starting arrangement — identical for
/// every method, as §4.2.1 prescribes.
linarr::Arrangement random_start(std::size_t instance, std::size_t n);

/// A configured Monte Carlo row of a table.
struct Method {
  std::string name;       ///< paper row label
  core::GClass cls;
  double scale = 1.0;     ///< tuned Y scale (Y1; k=6 schedules decay x0.9)
};

/// Runs the §4.2.1 tuning pass for each class on GOLA training data with
/// the given start policy and returns the configured methods.  Scale-free
/// classes pass through untuned.  Deterministic.
std::vector<Method> tune_methods(
    const std::vector<core::GClass>& classes,
    const std::vector<netlist::Netlist>& instances, bool goto_start,
    double typical_cost, double typical_delta);

/// Instantiates a method's g for a given instance (Cohoon-Sahni needs the
/// instance's net count).
std::unique_ptr<core::GFunction> make_method_g(const Method& method,
                                               const netlist::Netlist& nl);

enum class StartKind { kRandom, kGoto };

struct TableRunConfig {
  std::vector<std::uint64_t> budgets;  ///< already scaled
  StartKind start = StartKind::kRandom;
  bool figure2 = false;
  linarr::MoveKind move_kind = linarr::MoveKind::kPairwiseInterchange;
  std::uint64_t move_seed = 7;  ///< stream id for the perturbation RNG
  /// Worker threads for the per-(budget, instance) runs.  Every (budget,
  /// instance) cell already owns a derived RNG stream and the results are
  /// reduced in index order, so the row is bit-identical for any value —
  /// the table drivers default to 1 and let --threads opt in.
  unsigned num_threads = 1;
  /// Observability root (normally bench::driver_recorder()).  Each
  /// (budget, instance) job becomes a restart-scoped shard whose events
  /// are drained in job order after the row completes, so traces are
  /// thread-count invariant; job metrics merge into the driver totals
  /// reported by finish_driver_observability().
  const obs::Recorder* recorder = nullptr;
};

/// Total reduction (summed over instances) for one method at each budget —
/// one table row.  Follows the paper's protocol: same instances, same
/// starts, per-(instance, method) move streams.
std::vector<double> run_method_row(const Method& method,
                                   const std::vector<netlist::Netlist>& instances,
                                   const TableRunConfig& config);

/// The observability configuration shared by every table driver.
struct DriverOptions {
  unsigned threads = 1;
  std::uint64_t trace_sample = 1;
  std::string trace_path;       ///< --trace FILE (JSONL events)
  std::string metrics_path;     ///< --metrics-out FILE (--metrics alias)
  std::string profile_path;     ///< --profile-out FILE (profile-tree JSON)
  std::string prom_path;        ///< --prom-out FILE (Prometheus text)
  /// --timeline-out FILE: Chrome Trace Event JSON of the profile trees
  /// (Perfetto / chrome://tracing).  Implies profiling, like --profile-out.
  std::string timeline_path;
  /// --perf-counters [LIST]: arm hardware counters on the driver thread
  /// and attribute them to profile scopes.  Empty list = off; the bare
  /// flag selects every counter.  Implies profiling.
  std::vector<obs::PerfCounter> perf_counters;
  double progress_interval = 0.0;  ///< --progress [SECS]; 0 = off
  /// --flight-recorder [CAP]: keep the last CAP events in the process-wide
  /// flight ring and dump them as JSONL on abnormal exit.  0 = off.
  std::size_t flight_capacity = 0;
  std::string flight_path = "flight.jsonl";  ///< --flight-out FILE
  bool quiet = false;
  bool verbose = false;
};

/// Reads the integer flag --name, or `fallback` when it is absent.
/// Returns nullopt and fills `*error` with a one-line message naming the
/// flag when the value is not an integer (trailing characters included),
/// overflows, or is < 1.  Every bench's numeric flags go through this or
/// positive_double_flag, so a bad value is a usage error, never an abort.
std::optional<long long> positive_int_flag(const util::Args& args,
                                           const std::string& name,
                                           long long fallback,
                                           std::string* error);

/// positive_int_flag for a real-valued flag: rejects anything that is not
/// a finite number > 0.
std::optional<double> positive_double_flag(const util::Args& args,
                                           const std::string& name,
                                           double fallback,
                                           std::string* error);

/// Side-effect-free parse of the shared driver flags.  Returns nullopt and
/// fills `*error` with a one-line message (flag name included) on any
/// unknown flag, conflicting pair, or non-positive numeric value.
std::optional<DriverOptions> parse_driver_options(int argc,
                                                  const char* const* argv,
                                                  std::string* error);

/// Parses the flags shared by every table driver and returns the worker
/// thread count:
///   --threads N          worker threads (default 1, must be >= 1)
///   --trace FILE         JSONL trace of every run (tools/trace_report.py)
///   --metrics-out FILE   merged metrics summary as JSON (--metrics alias)
///   --profile-out FILE   hierarchical stage-profile tree as JSON
///   --prom-out FILE      metrics registry, Prometheus text exposition
///   --trace-sample N     keep every Nth proposal/accept/reject trio
///   --progress [SECS]    heartbeat lines, at most one per SECS (default 2)
///   --flight-recorder [CAP]  last-CAP-events flight ring (default 4096),
///                        dumped to --flight-out on crash/abort/SIGTERM
///   --flight-out FILE    flight-recorder dump path (default flight.jsonl)
///   --timeline-out FILE  Chrome Trace Event JSON (Perfetto) of the
///                        profile trees: one aggregate lane + one lane per
///                        worker, appended in job-index order
///   --perf-counters [LIST]  hardware counters (cycles,instructions,
///                        cache-references,cache-misses,branch-misses,
///                        task-clock; bare flag = all) attributed to
///                        profile scopes; degrades gracefully when
///                        perf_event_open is denied
///   --quiet / --verbose  log level (errors only / debug)
/// Applies MCOPT_LOG_LEVEL first (explicit flags win), installs the
/// recorder returned by driver_recorder() and sets the obs::log level.
/// Rejects unknown flags; exits with status 2 on a bad command line.
unsigned parse_driver_flags(int argc, const char* const* argv);

/// The process-wide recorder configured by parse_driver_flags(); off (and
/// free) when no observability flag was given.  Never null.
const obs::Recorder* driver_recorder();

/// The process-wide progress heartbeat; disabled unless --progress was
/// given.  Never null.  run_method_row() ticks it once per finished job.
obs::Heartbeat* driver_heartbeat();

/// Merges one run's metrics into the driver totals reported by
/// finish_driver_observability().  run_method_row() does this itself; call
/// it only for runs executed outside that harness (e.g. the tempering loop
/// of extension_tempering).
void absorb_run_metrics(const obs::RunMetrics& metrics);

/// Flushes the trace sink, writes the --metrics-out / --profile-out /
/// --prom-out / --timeline-out files, and logs a one-line telemetry
/// summary.  Call once at the end of a driver's main; no-op when
/// observability is off.  When the trace or any export cannot be written
/// it logs "cannot write <path>" for each, and exits with status 1 once
/// every export has been tried.
void finish_driver_observability();

/// Sum of the starting densities over the instance set for the given start
/// policy (the paper quotes 2594 random / 4254 NOLA-random etc.).
long long total_start_density(const std::vector<netlist::Netlist>& instances,
                              StartKind start);

/// Total reduction achieved by the Goto heuristic itself versus the random
/// starts (the "Goto" row of Tables 4.1 / 4.2(c)).
long long goto_total_reduction(const std::vector<netlist::Netlist>& instances);

/// Prints the standard bench preamble (experiment id, seed, scale).
void print_header(const std::string& title, const std::string& protocol);

/// Running total of invariant checks executed inside run_method_row
/// (nonzero only in MCOPT_CHECK_INVARIANTS builds).
std::uint64_t invariant_checks_executed();

/// Prints the invariant-check total in invariant-checking builds; no-op
/// otherwise.  Sanitized CI runs use this line to prove the deep checks
/// were live during the bench, not compiled out.
void print_invariant_summary();

/// When MCOPT_BENCH_CSV_DIR is set, mirrors the table to
/// <dir>/<experiment>.csv (header row + data rows) so plots can be
/// regenerated outside the repo.  No-op otherwise.
void maybe_write_csv(const std::string& experiment, const util::Table& table);

/// Writes an already-serialized JSON document to <dir>/<name>.json, where
/// <dir> is MCOPT_BENCH_JSON_DIR or the current directory.  Machine-readable
/// bench output (BENCH_parallel.json etc.) flows through here so future PRs
/// can diff perf trajectories.
void write_json_report(const std::string& name, const std::string& payload);

}  // namespace mcopt::bench
