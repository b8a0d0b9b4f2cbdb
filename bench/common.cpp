#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
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
#include "obs/trace.hpp"
#include "util/invariant.hpp"
#include "util/rng.hpp"

namespace mcopt::bench {

namespace {

/// A bad MCOPT_BENCH_SCALE is a usage error, like a bad flag.
[[noreturn]] void reject_bench_scale(const std::string& why) {
  obs::log(obs::LogLevel::kError, "%s", why.c_str());
  std::exit(2);
}

}  // namespace

double bench_scale() {
  static const double scale = [] {
    const char* env = std::getenv("MCOPT_BENCH_SCALE");
    if (env == nullptr || env[0] == '\0') return 1.0;
    try {
      return util::parse_real("MCOPT_BENCH_SCALE", env, 0.01);
    } catch (const std::invalid_argument& error) {
      reject_bench_scale(error.what());
    }
  }();
  return scale;
}

std::uint64_t scaled(std::uint64_t budget) {
  const double v = static_cast<double>(budget) * bench_scale();
  // 2^64: the first double a uint64_t cannot hold.
  if (v >= 18446744073709551616.0) {
    reject_bench_scale(std::string{"MCOPT_BENCH_SCALE="} +
                       std::getenv("MCOPT_BENCH_SCALE") +
                       ": a scaled budget does not fit in 64 bits");
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

std::vector<Method> tune_methods(const std::vector<core::GClass>& classes,
                                 StartKind start) {
  const auto instances = gola_instances();
  const bool goto_start = start == StartKind::kGoto;
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
        auto arrangement = goto_start ? linarr::goto_arrangement(nl)
                                      : random_start(i, nl.num_cells());
        return std::make_unique<linarr::LinArrProblem>(nl,
                                                       std::move(arrangement));
      };
      core::TunerOptions options;
      options.budget = scaled(kTuneBudget);
      options.num_instances = instances.size();
      options.seed = kSeed + 2;
      options.typical_cost = goto_start ? 65.0 : 80.0;
      options.typical_delta = goto_start ? 1.5 : 2.0;
      method.scale = core::tune_scale(cls, factory, options).best_scale;
    }
    methods.push_back(std::move(method));
  }
  return methods;
}

namespace {

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

}  // namespace

DriverOptions Driver::parse(const util::Args& args,
                            const std::vector<std::string>& own_flags) {
  std::vector<std::string> known{
      "threads", "trace", "report-out", "trace-sample", "progress",
      "flight-recorder", "flight-out", "quiet", "verbose"};
  known.insert(known.end(), own_flags.begin(), own_flags.end());
  const auto unknown = args.unknown_flags(known);
  if (!unknown.empty()) {
    throw std::invalid_argument("unknown flag --" + unknown.front());
  }
  if (!args.positional().empty()) {
    throw std::invalid_argument("unexpected argument '" +
                                args.positional().front() + "'");
  }
  if (args.has("quiet") && args.has("verbose")) {
    throw std::invalid_argument("--quiet and --verbose conflict");
  }

  DriverOptions out;
  out.quiet = args.has("quiet");
  out.verbose = args.has("verbose");
  out.threads = static_cast<unsigned>(
      args.get_count("threads", 1, 1, std::numeric_limits<unsigned>::max()));
  out.trace_sample = args.get_u64("trace-sample", 1, 1);
  // A bare --progress or --flight-recorder selects the default; a value
  // goes through the typed getters.
  if (args.has("progress")) {
    out.progress_interval =
        args.value("progress") ? args.get_real("progress", 0.0, 0.001) : 2.0;
  }
  if (args.has("flight-recorder")) {
    out.flight_capacity =
        args.value("flight-recorder")
            ? args.get_count("flight-recorder", 0, 1)
            : obs::FlightRecorder::kDefaultCapacity;
  }
  out.flight_path = args.get("flight-out", out.flight_path);
  if (out.flight_capacity == 0 && args.has("flight-out")) {
    throw std::invalid_argument("--flight-out requires --flight-recorder");
  }

  out.trace_path = args.get("trace", "");
  out.report_path = args.get("report-out", "");
  return out;
}

Driver::Driver(int argc, const char* const* argv,
               std::vector<std::string> own_flags)
    : args_{argc, argv}, own_flags_{std::move(own_flags)} {
  // Environment default first; explicit --quiet/--verbose override it.
  obs::apply_env_log_level();
  try {
    options_ = parse(args_, own_flags_);
    if (!options_.trace_path.empty()) {
      trace_sink_ = std::make_unique<obs::JsonlFileSink>(options_.trace_path);
    }
  } catch (const std::invalid_argument& error) {
    usage_error(error.what());  // a bad flag or a trace path that won't open
  }
  // A report directory that is not there fails now, like an unopenable
  // --trace, rather than after the timed work.
  for (const char* var : {"MCOPT_BENCH_JSON_DIR", "MCOPT_BENCH_CSV_DIR"}) {
    const char* dir = std::getenv(var);
    std::error_code error;
    if (dir != nullptr && dir[0] != '\0' &&
        !std::filesystem::is_directory(dir, error)) {
      obs::log(obs::LogLevel::kError, "cannot write %s/: not a directory",
               dir);
      std::exit(1);
    }
  }
  if (options_.quiet) obs::set_log_level(obs::LogLevel::kError);
  if (options_.verbose) obs::set_log_level(obs::LogLevel::kDebug);
  if (options_.threads > 1) {
    obs::log(obs::LogLevel::kInfo,
             "threads=%u (results are thread-count invariant)",
             options_.threads);
  }

  if (options_.progress_interval > 0.0) {
    heartbeat_.enable("jobs", options_.progress_interval);
  }
  // The flight ring rides the same event stream as --trace: alone it is
  // the recorder's sink, together they share a tee.  Handlers go in after
  // arming so a crash at any later point finds a ready ring.  The ring is
  // the one process-wide piece: the crash handlers need it.
  obs::TraceSink* event_sink = trace_sink_.get();
  if (options_.flight_capacity > 0) {
    auto& flight = obs::FlightRecorder::instance();
    flight.arm(options_.flight_capacity, options_.flight_path);
    flight.install_crash_handlers();
    if (event_sink != nullptr) {
      flight_tee_ = std::make_unique<obs::TeeSink>(event_sink, flight.sink());
      event_sink = flight_tee_.get();
    } else {
      event_sink = flight.sink();
    }
  }
  const bool report = !options_.report_path.empty();
  if (event_sink != nullptr || report) {
    recorder_ = obs::Recorder{event_sink, /*collect_metrics=*/report,
                              options_.trace_sample, /*run=*/0,
                              /*collect_profile=*/report};
  }
}

void Driver::usage_error(const std::string& error) const {
  std::string own;
  for (const auto& name : own_flags_) own += " [--" + name + " V]";
  obs::log(obs::LogLevel::kError, "%s: %s", args_.program().c_str(),
           error.c_str());
  obs::log(obs::LogLevel::kError,
           "usage: %s%s [--threads N] [--trace FILE] [--report-out FILE] "
           "[--trace-sample N] "
           "[--progress [SECS]] [--flight-recorder [CAP]] [--flight-out FILE] "
           "[--quiet|--verbose]",
           args_.program().c_str(), own.c_str());
  std::exit(2);
}

std::string Driver::choice(const std::string& name,
                           const std::vector<std::string>& choices,
                           const std::string& fallback) const {
  if (!args_.has(name)) return fallback;
  const std::string value = args_.value(name).value_or("");
  if (std::find(choices.begin(), choices.end(), value) == choices.end()) {
    std::string list;
    for (const auto& word : choices) list += (list.empty() ? "" : "|") + word;
    usage_error("--" + name + " expects one of " + list + ", got '" + value +
                "'");
  }
  return value;
}

bool Driver::write_export(const std::string& path, const std::string& text) {
  std::ofstream out{path};
  out << text;
  out.close();
  if (!out) {
    obs::log(obs::LogLevel::kError, "cannot write %s", path.c_str());
    write_failed_ = true;
    return false;
  }
  return true;
}

void Driver::print_invariant_summary() const {
  if constexpr (util::kInvariantsEnabled) {
    std::printf("\ninvariant checks executed: %llu\n",
                static_cast<unsigned long long>(invariant_checks_));
  }
}

void Driver::write_csv(const std::string& experiment,
                       const util::Table& table) {
  const char* dir = std::getenv("MCOPT_BENCH_CSV_DIR");
  if (dir == nullptr || dir[0] == '\0') return;
  const std::string path = std::string{dir} + "/" + experiment + ".csv";
  std::ostringstream text;
  util::CsvWriter csv{text};
  csv.row(table.headers());
  for (const auto& row : table.data()) csv.row(row);
  if (write_export(path, text.str())) {
    std::printf("(csv mirrored to %s)\n", path.c_str());
  }
}

void Driver::write_json(const std::string& name, const std::string& payload) {
  // Never the current directory: from the repo root that would replace the
  // committed baseline with whatever flags this run was given.
  const char* dir = std::getenv("MCOPT_BENCH_JSON_DIR");
  if (dir == nullptr || dir[0] == '\0') {
    std::printf("(no json report written: MCOPT_BENCH_JSON_DIR is unset)\n");
    return;
  }
  const std::string path = std::string{dir} + "/" + name + ".json";
  if (write_export(path, payload)) {
    std::printf("(json report written to %s)\n", path.c_str());
  }
}

std::vector<double> run_method_row(
    Driver& driver, const Method& method,
    const std::vector<netlist::Netlist>& instances,
    const TableRunConfig& config) {
  // Every (budget, instance) cell is an independent job with its own derived
  // RNG stream, so the grid can run on any number of threads; the index-
  // ordered reduction below keeps the row bit-identical regardless.
  const std::size_t num_jobs = config.budgets.size() * instances.size();
  std::vector<double> reductions(num_jobs, 0.0);
  std::vector<std::uint64_t> checks(num_jobs, 0);

  // One run id per row; each job is a restart-scoped shard within it, so
  // (run, restart) identifies (row, budget x instance cell) in the trace.
  const obs::Recorder root = driver.recorder_.with_run(driver.run_counter_++);
  std::vector<obs::RunMetrics> job_metrics(num_jobs);
  std::vector<std::vector<obs::Event>> job_events(num_jobs);
  // Worker that executed each job, for the per-worker profiles.
  std::vector<unsigned> job_worker(num_jobs, 0);
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
    if (done < num_jobs) driver.heartbeat_.tick(done, num_jobs, std::nan(""));
  };

  // Claim order is irrelevant: every output lands in a per-job slot and is
  // reduced in index order below.
  core::parallel_for(num_jobs, driver.threads(), run_job);

  std::vector<double> totals(config.budgets.size(), 0.0);
  obs::TraceSink* sink = root.sink();
  // Row-local metrics accumulator: merge() is associative (a tested
  // invariant), so folding jobs -> row -> driver totals equals the direct
  // fold, and the row aggregate feeds the heartbeat digest below.
  obs::RunMetrics row_metrics;
  for (std::size_t job = 0; job < num_jobs; ++job) {
    totals[job / instances.size()] += reductions[job];
    driver.invariant_checks_ += checks[job];
    // Job order is the single-thread execution order, so the drained trace
    // and merged metrics are thread-count invariant (worker stamps aside).
    if (sink != nullptr) {
      for (const obs::Event& event : job_events[job]) sink->write(event);
    }
    if (!job_metrics[job].profile.empty()) {
      driver.worker_profiles_[job_worker[job]].merge(job_metrics[job].profile);
    }
    row_metrics.merge(job_metrics[job]);
  }
  driver.absorb(row_metrics);
  if (num_jobs > 0) {
    driver.heartbeat_.tick(num_jobs, num_jobs, std::nan(""),
                           observables_note(row_metrics));
  }
  return totals;
}

void Driver::finish() {
  const DriverOptions& o = options_;
  if (trace_sink_ != nullptr) {
    trace_sink_->flush();
    if (trace_sink_->failed()) {
      obs::log(obs::LogLevel::kError, "cannot write %s", o.trace_path.c_str());
      write_failed_ = true;
    } else {
      obs::log(obs::LogLevel::kInfo, "trace: %llu events -> %s",
               static_cast<unsigned long long>(trace_sink_->written()),
               o.trace_path.c_str());
    }
  }
  if (!o.report_path.empty()) {
    // The merged metrics document plus one top-level key, "workers": its
    // closing "\n}\n" is reopened for it.
    std::string doc = totals_.to_json();
    doc.resize(doc.size() - 3);
    doc += ",\n  \"workers\": [";
    const char* sep = "\n    ";
    for (const auto& [worker, tree] : worker_profiles_) {
      doc += sep;
      doc += "{\"worker\": " + std::to_string(worker) +
             ", \"profile\": " + tree.to_json() + "}";
      sep = ",\n    ";
    }
    doc += worker_profiles_.empty() ? "]\n}\n" : "\n  ]\n}\n";
    if (write_export(o.report_path, doc)) {
      obs::log(obs::LogLevel::kInfo, "%s", totals_.summary().c_str());
      obs::log(obs::LogLevel::kInfo, "report -> %s", o.report_path.c_str());
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
  if (write_failed_) std::exit(1);
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

}  // namespace mcopt::bench
