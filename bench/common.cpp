#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/args.hpp"
#include "util/csv.hpp"

#include "core/figure1.hpp"
#include "core/figure2.hpp"
#include "core/parallel.hpp"
#include "linarr/goto_heuristic.hpp"
#include "netlist/generator.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "util/invariant.hpp"
#include "util/rng.hpp"

namespace mcopt::bench {

namespace {

/// A bad MCOPT_BENCH_SCALE is a usage error, like a bad flag.
[[noreturn]] void reject_bench_scale(const char* why) {
  obs::log(obs::LogLevel::kError, "MCOPT_BENCH_SCALE=%s: %s",
           std::getenv("MCOPT_BENCH_SCALE"), why);
  std::exit(2);
}

}  // namespace

double bench_scale() {
  static const double scale = [] {
    const char* env = std::getenv("MCOPT_BENCH_SCALE");
    if (env == nullptr || env[0] == '\0') return 1.0;
    char* end = nullptr;
    const double v = std::strtod(env, &end);
    if (end == env || *end != '\0') reject_bench_scale("expects a number");
    if (!std::isfinite(v)) reject_bench_scale("must be finite");
    if (v < 0.01) reject_bench_scale("must be >= 0.01");
    return v;
  }();
  return scale;
}

std::uint64_t scaled(std::uint64_t budget) {
  const double v = static_cast<double>(budget) * bench_scale();
  // 2^64: the first double a uint64_t cannot hold.
  if (v >= 18446744073709551616.0) {
    reject_bench_scale("a scaled budget does not fit in 64 bits");
  }
  return v < 1.0 ? 1 : static_cast<std::uint64_t>(v);
}

std::vector<netlist::Netlist> gola_instances() {
  return netlist::gola_test_set(30, netlist::GolaParams{15, 150}, kSeed);
}

std::vector<netlist::Netlist> nola_instances() {
  return netlist::nola_test_set(30, netlist::NolaParams{15, 150, 2, 6},
                                kSeed);
}

linarr::Arrangement random_start(std::size_t instance, std::size_t n) {
  util::Rng rng{util::derive_seed(kSeed + 1, instance)};
  return linarr::Arrangement::random(n, rng);
}

std::unique_ptr<core::GFunction> make_method_g(const Method& method,
                                               const netlist::Netlist& nl) {
  core::GParams params;
  params.scale = method.scale;
  params.num_nets = nl.num_nets();
  return core::make_g(method.cls, params);
}

std::vector<Method> tune_methods(
    const std::vector<core::GClass>& classes,
    const std::vector<netlist::Netlist>& instances, bool goto_start,
    double typical_cost, double typical_delta) {
  const std::size_t train_count =
      std::min<std::size_t>(kTuneInstances, instances.size());

  std::vector<Method> methods;
  methods.reserve(classes.size());
  for (const core::GClass cls : classes) {
    Method method;
    method.name = core::g_class_name(cls);
    method.cls = cls;
    if (core::g_class_uses_scale(cls)) {
      core::ProblemFactory factory =
          [&instances, goto_start](
              std::size_t i) -> std::unique_ptr<core::Problem> {
        const auto& nl = instances[i];
        auto start = goto_start ? linarr::goto_arrangement(nl)
                                : random_start(i, nl.num_cells());
        return std::make_unique<linarr::LinArrProblem>(nl, std::move(start));
      };
      core::TunerOptions options;
      options.budget = scaled(kTuneBudget);
      options.num_instances = train_count;
      options.seed = kSeed + 2;
      options.typical_cost = typical_cost;
      options.typical_delta = typical_delta;
      method.scale = core::tune_scale(cls, factory, options).best_scale;
    }
    methods.push_back(std::move(method));
  }
  return methods;
}

namespace {

std::uint64_t g_invariant_checks = 0;

// Observability state installed by parse_driver_flags().  The recorder is
// off by default, so drivers that never see an observability flag pay one
// dead branch per event site and nothing else.
std::unique_ptr<obs::JsonlFileSink> g_trace_sink;
// Fans the event stream into both the trace file and the flight ring when
// --trace and --flight-recorder are both active.
std::unique_ptr<obs::TeeSink> g_flight_tee;
obs::Recorder g_recorder;
obs::Heartbeat g_heartbeat;
obs::RunMetrics g_metrics_totals;
// Hardware counters armed by --perf-counters; the recorder borrows the
// pointer, so the group must outlive every run (it lives for the process).
std::unique_ptr<obs::PerfCounterGroup> g_perf_group;
obs::TimelineBuilder g_timeline;
std::string g_trace_path;
std::string g_metrics_path;
std::string g_profile_path;
std::string g_prom_path;
std::string g_timeline_path;
std::uint64_t g_run_counter = 0;

/// Observables digest for the heartbeat's final row tick, e.g.
/// "eq 3/6 stages" — how many sampled stages reached equilibrium in at
/// least one run.  Empty when metrics are off or nothing was sampled.
std::string observables_note(const obs::RunMetrics& metrics) {
  if (!metrics.collected) return {};
  std::size_t active = 0;
  std::size_t equilibrated = 0;
  for (const auto& o : metrics.observables) {
    if (o.samples == 0) continue;
    ++active;
    if (o.equilibrated_runs > 0) ++equilibrated;
  }
  if (active == 0) return {};
  return "eq " + std::to_string(equilibrated) + "/" +
         std::to_string(active) + " stages";
}

/// Writes one export file; logs "cannot write <path>" and returns false
/// when the file cannot be opened or the write (close included) fails.
bool write_export(const std::string& path, const std::string& text) {
  std::ofstream out{path};
  out << text;
  out.close();
  if (!out) {
    obs::log(obs::LogLevel::kError, "cannot write %s", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

std::uint64_t invariant_checks_executed() { return g_invariant_checks; }

void print_invariant_summary() {
  if constexpr (util::kInvariantsEnabled) {
    std::printf("\ninvariant checks executed: %llu\n",
                static_cast<unsigned long long>(g_invariant_checks));
  }
}

std::vector<double> run_method_row(
    const Method& method, const std::vector<netlist::Netlist>& instances,
    const TableRunConfig& config) {
  // Every (budget, instance) cell is an independent job with its own derived
  // RNG stream, so the grid can run on any number of threads; the index-
  // ordered reduction below keeps the row bit-identical regardless.
  const std::size_t num_jobs = config.budgets.size() * instances.size();
  std::vector<double> reductions(num_jobs, 0.0);
  std::vector<std::uint64_t> checks(num_jobs, 0);

  // One run id per row; each job is a restart-scoped shard within it, so
  // (run, restart) identifies (row, budget x instance cell) in the trace.
  const obs::Recorder root = config.recorder != nullptr
                                 ? config.recorder->with_run(g_run_counter++)
                                 : obs::Recorder{};
  std::vector<obs::RunMetrics> job_metrics(num_jobs);
  std::vector<std::vector<obs::Event>> job_events(num_jobs);
  // Worker that executed each job, for the per-worker timeline lanes.
  std::vector<std::uint64_t> job_worker(num_jobs, 0);
  // Progress counter for the heartbeat only: rows are reduced from the
  // per-job vectors in index order, so this never touches determinism.
  std::atomic<std::size_t> jobs_done{0};  // mcopt-lint: allow(raw-atomic)

  auto run_job = [&](std::size_t job, unsigned worker) {
    const std::size_t b = job / instances.size();
    const std::size_t i = job % instances.size();
    const auto& nl = instances[i];
    auto start = config.start == StartKind::kGoto
                     ? linarr::goto_arrangement(nl)
                     : random_start(i, nl.num_cells());
    linarr::LinArrProblem problem{nl, std::move(start), config.move_kind};
    const auto g = make_method_g(method, nl);
    util::Rng rng{util::derive_seed(config.move_seed, i)};
    obs::VectorSink shard;
    obs::Recorder rec =
        root.for_restart(job, worker, root.tracing() ? &shard : nullptr);
    if (rec.on()) rec.restart_begin(problem.cost());
    core::RunResult result;
    if (config.figure2) {
      core::Figure2Options fig2;
      fig2.budget = config.budgets[b];
      fig2.recorder = &rec;
      result = core::run_figure2(problem, *g, fig2, rng);
    } else {
      core::Figure1Options fig1;
      fig1.budget = config.budgets[b];
      fig1.recorder = &rec;
      result = core::run_figure1(problem, *g, fig1, rng);
    }
    reductions[job] = result.reduction();
    checks[job] = result.invariants.executed;
    if (result.metrics.collected) result.metrics.restarts = 1;
    job_metrics[job] = std::move(result.metrics);
    job_events[job] = shard.take();
    job_worker[job] = worker;
    // The final tick is emitted after the reduction below so it can carry
    // the row's observables digest; in-flight ticks stay here.
    const std::size_t done = jobs_done.fetch_add(1) + 1;
    if (done < num_jobs) g_heartbeat.tick(done, num_jobs, std::nan(""));
  };

  // Claim order is irrelevant: every output lands in a per-job slot and is
  // reduced in index order below.
  core::parallel_for(num_jobs, config.num_threads, run_job);

  std::vector<double> totals(config.budgets.size(), 0.0);
  obs::TraceSink* sink = root.sink();
  // Row-local metrics accumulator: merge() is associative (a tested
  // invariant), so folding jobs -> row -> driver totals equals the direct
  // fold, and the row aggregate feeds the heartbeat digest below.
  obs::RunMetrics row_metrics;
  for (std::size_t job = 0; job < num_jobs; ++job) {
    totals[job / instances.size()] += reductions[job];
    g_invariant_checks += checks[job];
    // Job order is the single-thread execution order, so the drained trace
    // and merged metrics are thread-count invariant (worker stamps aside).
    if (sink != nullptr) {
      for (const obs::Event& event : job_events[job]) sink->write(event);
    }
    row_metrics.merge(job_metrics[job]);
    // Per-worker timeline lanes: each job's own profile tree lands on the
    // lane of the worker that ran it.  The jobs are drained in index
    // order here, so the lane contents are append-ordered by job index —
    // the same order the trace and metrics merges use.
    if (!g_timeline_path.empty() && !job_metrics[job].profile.empty()) {
      const auto tid = static_cast<std::uint32_t>(job_worker[job]);
      g_timeline.set_process_name(1, "workers");
      g_timeline.set_thread_name(
          1, tid, tid == 0 ? "caller thread" : "worker " + std::to_string(tid));
      g_timeline.add_tree(job_metrics[job].profile, 1, tid);
    }
  }
  g_metrics_totals.merge(row_metrics);
  if (num_jobs > 0) {
    g_heartbeat.tick(num_jobs, num_jobs, std::nan(""),
                     observables_note(row_metrics));
  }
  return totals;
}

std::optional<long long> positive_int_flag(const util::Args& args,
                                           const std::string& name,
                                           long long fallback,
                                           std::string* error) {
  long long value = 0;
  try {
    value = args.get_int(name, fallback);
  } catch (const std::invalid_argument&) {
    *error = "--" + name + " expects an integer (got '" +
             args.value(name).value_or("") + "')";
    return std::nullopt;
  }
  if (value < 1) {
    *error = "--" + name + " must be >= 1 (got " + std::to_string(value) + ")";
    return std::nullopt;
  }
  return value;
}

std::optional<double> positive_double_flag(const util::Args& args,
                                           const std::string& name,
                                           double fallback,
                                           std::string* error) {
  double value = 0.0;
  try {
    value = args.get_double(name, fallback);
  } catch (const std::invalid_argument&) {
    *error = "--" + name + " expects a number (got '" +
             args.value(name).value_or("") + "')";
    return std::nullopt;
  }
  if (!(value > 0.0) || !std::isfinite(value)) {
    *error = "--" + name + " must be a finite number > 0 (got " +
             args.value(name).value_or("") + ")";
    return std::nullopt;
  }
  return value;
}

std::optional<DriverOptions> parse_driver_options(int argc,
                                                  const char* const* argv,
                                                  std::string* error) {
  const util::Args args{argc, argv};
  const auto unknown = args.unknown_flags(
      {"threads", "trace", "metrics", "metrics-out", "profile-out",
       "prom-out", "timeline-out", "perf-counters", "trace-sample",
       "progress", "flight-recorder", "flight-out", "quiet", "verbose"});
  if (!unknown.empty()) {
    *error = "unknown flag --" + unknown.front();
    return std::nullopt;
  }
  if (!args.positional().empty()) {
    *error = "unexpected argument '" + args.positional().front() + "'";
    return std::nullopt;
  }
  if (args.has("quiet") && args.has("verbose")) {
    *error = "--quiet and --verbose conflict";
    return std::nullopt;
  }

  DriverOptions out;
  out.quiet = args.has("quiet");
  out.verbose = args.has("verbose");

  // Each numeric flag is validated by name so the error tells the user
  // exactly which value to fix.
  const auto threads = positive_int_flag(args, "threads", 1, error);
  if (!threads) return std::nullopt;
  const auto sample = positive_int_flag(args, "trace-sample", 1, error);
  if (!sample) return std::nullopt;
  out.threads = static_cast<unsigned>(*threads);
  out.trace_sample = static_cast<std::uint64_t>(*sample);

  // A bare --progress or --flight-recorder selects the default.
  if (args.has("progress")) {
    const auto interval = positive_double_flag(args, "progress", 2.0, error);
    if (!interval) return std::nullopt;
    out.progress_interval = *interval;
  }
  if (args.has("flight-recorder")) {
    const auto cap = positive_int_flag(
        args, "flight-recorder",
        static_cast<long long>(obs::FlightRecorder::kDefaultCapacity), error);
    if (!cap) return std::nullopt;
    out.flight_capacity = static_cast<std::size_t>(*cap);
  }
  out.flight_path = args.get("flight-out", out.flight_path);
  if (out.flight_capacity == 0 && args.has("flight-out")) {
    *error = "--flight-out requires --flight-recorder";
    return std::nullopt;
  }

  out.trace_path = args.get("trace", "");
  // --metrics is the original spelling; --metrics-out matches the other
  // exporter flags and wins when both are given.
  out.metrics_path = args.get("metrics-out", args.get("metrics", ""));
  out.profile_path = args.get("profile-out", "");
  out.prom_path = args.get("prom-out", "");

  if (args.has("timeline-out")) {
    out.timeline_path = args.value("timeline-out").value_or("");
    if (out.timeline_path.empty()) {
      *error = "--timeline-out expects a file path";
      return std::nullopt;
    }
  }
  if (args.has("perf-counters")) {
    const std::string list = args.value("perf-counters").value_or("");
    if (list.empty()) {
      out.perf_counters = obs::all_perf_counters();  // bare flag
    } else {
      std::string parse_error;
      const auto counters = obs::parse_perf_counters(list, &parse_error);
      if (!counters) {
        *error = "--perf-counters: " + parse_error;
        return std::nullopt;
      }
      out.perf_counters = *counters;
    }
  }
  return out;
}

unsigned parse_driver_flags(int argc, const char* const* argv) {
  // Environment default first; explicit --quiet/--verbose override it.
  obs::apply_env_log_level();
  const util::Args args{argc, argv};
  std::string error;
  const auto parsed = parse_driver_options(argc, argv, &error);
  if (!parsed) {
    obs::log(obs::LogLevel::kError, "%s: %s", args.program().c_str(),
             error.c_str());
    obs::log(obs::LogLevel::kError,
             "usage: %s [--threads N] [--trace FILE] [--metrics-out FILE] "
             "[--profile-out FILE] [--prom-out FILE] [--timeline-out FILE] "
             "[--perf-counters [LIST]] [--trace-sample N] "
             "[--progress [SECS]] [--flight-recorder [CAP]] "
             "[--flight-out FILE] [--quiet|--verbose]",
             args.program().c_str());
    std::exit(2);
  }
  if (parsed->quiet) obs::set_log_level(obs::LogLevel::kError);
  if (parsed->verbose) obs::set_log_level(obs::LogLevel::kDebug);
  if (parsed->threads > 1) {
    obs::log(obs::LogLevel::kInfo,
             "threads=%u (results are thread-count invariant)",
             parsed->threads);
  }

  g_trace_path = parsed->trace_path;
  g_metrics_path = parsed->metrics_path;
  g_profile_path = parsed->profile_path;
  g_prom_path = parsed->prom_path;
  g_timeline_path = parsed->timeline_path;
  if (!g_trace_path.empty()) {
    try {
      g_trace_sink = std::make_unique<obs::JsonlFileSink>(g_trace_path);
    } catch (const std::invalid_argument& open_error) {
      obs::log(obs::LogLevel::kError, "%s: %s", args.program().c_str(),
               open_error.what());
      std::exit(2);
    }
  }
  if (parsed->progress_interval > 0.0) {
    g_heartbeat.enable("jobs", parsed->progress_interval);
  }
  // The flight ring rides the same event stream as --trace: alone it is
  // the recorder's sink, together they share a tee.  Handlers go in after
  // arming so a crash at any later point finds a ready ring.
  obs::TraceSink* event_sink = g_trace_sink.get();
  if (parsed->flight_capacity > 0) {
    auto& flight = obs::FlightRecorder::instance();
    flight.arm(parsed->flight_capacity, parsed->flight_path);
    flight.install_crash_handlers();
    if (event_sink != nullptr) {
      g_flight_tee =
          std::make_unique<obs::TeeSink>(event_sink, flight.sink());
      event_sink = g_flight_tee.get();
    } else {
      event_sink = flight.sink();
    }
  }
  const bool collect_metrics =
      !g_metrics_path.empty() || !g_prom_path.empty();
  // Timeline export and counter attribution both ride the profile tree.
  const bool collect_profile = !g_profile_path.empty() ||
                               !g_timeline_path.empty() ||
                               !parsed->perf_counters.empty();
  if (event_sink != nullptr || collect_metrics || collect_profile) {
    g_recorder = obs::Recorder{event_sink, collect_metrics,
                               parsed->trace_sample, /*run=*/0,
                               collect_profile};
  }
  if (!parsed->perf_counters.empty()) {
    g_perf_group =
        std::make_unique<obs::PerfCounterGroup>(parsed->perf_counters);
    if (g_perf_group->available()) {
      g_recorder.set_perf_counters(g_perf_group.get());
      obs::log(obs::LogLevel::kInfo,
               "perf counters armed (%zu of %zu requested)",
               g_perf_group->active_counters().size(),
               parsed->perf_counters.size());
    } else {
      // Graceful degradation: the run proceeds identically, the perf
      // gauges are simply never produced.
      obs::log(obs::LogLevel::kInfo, "perf counters unavailable: %s",
               g_perf_group->unavailable_reason().c_str());
    }
  }
  return parsed->threads;
}

const obs::Recorder* driver_recorder() { return &g_recorder; }

obs::Heartbeat* driver_heartbeat() { return &g_heartbeat; }

void absorb_run_metrics(const obs::RunMetrics& metrics) {
  g_metrics_totals.merge(metrics);
}

void finish_driver_observability() {
  bool ok = true;
  if (g_trace_sink != nullptr) {
    g_trace_sink->flush();
    if (g_trace_sink->failed()) {
      obs::log(obs::LogLevel::kError, "cannot write %s", g_trace_path.c_str());
      ok = false;
    } else {
      obs::log(obs::LogLevel::kInfo, "trace: %llu events -> %s",
               static_cast<unsigned long long>(g_trace_sink->written()),
               g_trace_path.c_str());
    }
  }
  if (!g_metrics_path.empty()) {
    if (write_export(g_metrics_path, g_metrics_totals.to_json())) {
      obs::log(obs::LogLevel::kInfo, "%s",
               g_metrics_totals.summary().c_str());
      obs::log(obs::LogLevel::kInfo, "metrics -> %s", g_metrics_path.c_str());
    } else {
      ok = false;
    }
  }
  if (!g_profile_path.empty()) {
    if (write_export(g_profile_path, "{\n  \"profile\": " +
                                         g_metrics_totals.profile.to_json() +
                                         "\n}\n")) {
      obs::log(obs::LogLevel::kInfo, "profile -> %s", g_profile_path.c_str());
    } else {
      ok = false;
    }
  }
  if (!g_timeline_path.empty()) {
    // The aggregate lane goes in last so it reflects every merged row;
    // worker lanes were appended during run_method_row in job-index order.
    if (!g_metrics_totals.profile.empty()) {
      g_timeline.set_process_name(0, "mcopt aggregate profile");
      g_timeline.set_thread_name(0, 0, "all runs");
      g_timeline.add_tree(g_metrics_totals.profile, 0, 0);
    }
    if (write_export(g_timeline_path, g_timeline.to_json())) {
      obs::log(obs::LogLevel::kInfo,
               "timeline: %zu events -> %s (open in ui.perfetto.dev)",
               g_timeline.num_events(), g_timeline_path.c_str());
    } else {
      ok = false;
    }
  }
  if (!g_prom_path.empty()) {
    obs::MetricsRegistry registry;
    registry.populate_from_run(g_metrics_totals);
    if (write_export(g_prom_path, registry.to_prometheus())) {
      obs::log(obs::LogLevel::kInfo, "prometheus metrics (%zu series) -> %s",
               registry.size(), g_prom_path.c_str());
    } else {
      ok = false;
    }
  }
  const obs::FlightRecorder& flight = obs::FlightRecorder::instance();
  if (flight.armed()) {
    // A clean exit only reports the ring; the dump file is written by the
    // crash handlers alone, so its existence proves abnormal termination.
    const obs::RingBufferSink* ring = flight.ring();
    obs::log(obs::LogLevel::kInfo,
             "flight recorder: %zu buffered events (cap %zu, %llu dropped); "
             "dump on abnormal exit -> %s",
             ring->size(), ring->capacity(),
             static_cast<unsigned long long>(ring->dropped()),
             flight.dump_path().c_str());
    // CI hook proving the dump path end to end: abort here so the SIGABRT
    // handler writes the flight file before the process dies.
    if (std::getenv("MCOPT_FLIGHT_INDUCED_ABORT") != nullptr) {
      obs::log(obs::LogLevel::kError,
               "MCOPT_FLIGHT_INDUCED_ABORT set: aborting now");
      std::abort();
    }
  }
  if (!ok) std::exit(1);
}

long long total_start_density(const std::vector<netlist::Netlist>& instances,
                              StartKind start) {
  long long total = 0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const auto& nl = instances[i];
    const auto arr = start == StartKind::kGoto
                         ? linarr::goto_arrangement(nl)
                         : random_start(i, nl.num_cells());
    total += linarr::density_of(nl, arr);
  }
  return total;
}

long long goto_total_reduction(
    const std::vector<netlist::Netlist>& instances) {
  return total_start_density(instances, StartKind::kRandom) -
         total_start_density(instances, StartKind::kGoto);
}

void print_header(const std::string& title, const std::string& protocol) {
  // Validates MCOPT_BENCH_SCALE before the first line goes out.
  const std::uint64_t six_sec = scaled(kSixSec);
  std::printf("================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("%s\n", protocol.c_str());
  std::printf("seed=%llu  tick calibration: 6 s ~= %llu ticks  scale=%.2f\n",
              static_cast<unsigned long long>(kSeed),
              static_cast<unsigned long long>(six_sec), bench_scale());
  std::printf("================================================================\n");
}

void maybe_write_csv(const std::string& experiment,
                     const util::Table& table) {
  const char* dir = std::getenv("MCOPT_BENCH_CSV_DIR");
  if (dir == nullptr || dir[0] == '\0') return;
  const std::string path = std::string{dir} + "/" + experiment + ".csv";
  std::ofstream out{path};
  if (!out) {
    obs::log(obs::LogLevel::kError, "warning: cannot write %s", path.c_str());
    return;
  }
  util::CsvWriter csv{out};
  csv.row(table.headers());
  for (const auto& row : table.data()) csv.row(row);
  std::printf("(csv mirrored to %s)\n", path.c_str());
}

void write_json_report(const std::string& name, const std::string& payload) {
  const char* dir = std::getenv("MCOPT_BENCH_JSON_DIR");
  const std::string path =
      (dir != nullptr && dir[0] != '\0' ? std::string{dir} + "/" : std::string{}) +
      name + ".json";
  std::ofstream out{path};
  if (!out) {
    obs::log(obs::LogLevel::kError, "warning: cannot write %s", path.c_str());
    return;
  }
  out << payload;
  std::printf("(json report written to %s)\n", path.c_str());
}

}  // namespace mcopt::bench
