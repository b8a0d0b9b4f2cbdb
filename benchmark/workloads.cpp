#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "core/annealer.hpp"
#include "core/figure1.hpp"
#include "core/figure2.hpp"
#include "core/gfunction.hpp"
#include "core/parallel.hpp"
#include "core/schedule.hpp"
#include "core/tuner.hpp"
#include "linarr/arrangement.hpp"
#include "linarr/density.hpp"
#include "linarr/goto_heuristic.hpp"
#include "linarr/problem.hpp"
#include "netlist/generator.hpp"
#include "netlist/netlist.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "partition/kl.hpp"
#include "partition/partition.hpp"
#include "partition/problem.hpp"
#include "tsp/construct.hpp"
#include "tsp/instance.hpp"
#include "tsp/local_search.hpp"
#include "tsp/problem.hpp"
#include "tsp/tour.hpp"
#include "util/budget.hpp"
#include "util/rng.hpp"

namespace mcopt::benchmark {

Context::Context(std::uint64_t seed_value, Probe& probe_ref,
                 std::string scratch_dir)
    : seed(seed_value), probe(probe_ref), scratch(std::move(scratch_dir)) {}

std::uint64_t Context::next_solve() {
  util::MutexLock lock{mu_};
  return ++solves_;
}

void Context::record_solve(std::uint64_t ns, std::uint64_t solve_ticks) {
  util::MutexLock lock{mu_};
  solve_ns_per_tick_.push_back(
      static_cast<double>(ns) /
      static_cast<double>(std::max<std::uint64_t>(solve_ticks, 1)));
}

std::vector<double> Context::solve_ns_per_tick() const {
  util::MutexLock lock{mu_};
  return solve_ns_per_tick_;
}

std::size_t Context::solve_count() const {
  util::MutexLock lock{mu_};
  return solve_ns_per_tick_.size();
}

void Context::check(bool ok, const char* what) {
  ++checks_;
  if (!ok) failures_.emplace_back(what);
}

namespace {

template <typename... Args>
std::string format(const char* fmt, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, args...);
  return buf;
}

unsigned long long ull(std::uint64_t v) {
  return static_cast<unsigned long long>(v);
}

/// Times one solve from construction to result and counts its ticks.
class SolveTimer {
 public:
  explicit SolveTimer(Context& ctx)
      : ctx_(ctx), id_(ctx.next_solve()), begin_(now_ns()) {}
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  void done(std::uint64_t ticks) {
    ctx_.record_solve(now_ns() - begin_, ticks);
    ctx_.ticks += ticks;
  }

 private:
  Context& ctx_;
  std::uint64_t id_;
  std::uint64_t begin_;
};

// --------------------------------------------------------------------------
// Linear arrangement: the protocols of Tables 4.1 and 4.2(a)-(c).
// --------------------------------------------------------------------------

constexpr std::size_t kInstances = 30;
constexpr std::uint64_t kTuneBudget = 500;  // about a 5 s run, per §4.2.1

/// The 30-instance GOLA and NOLA sets (15 elements, 150 nets) and the
/// starting arrangements every method shares.
struct LinarrInputs {
  std::vector<netlist::Netlist> gola;
  std::vector<netlist::Netlist> nola;
  std::vector<linarr::Arrangement> gola_random;
  std::vector<linarr::Arrangement> gola_goto;
  std::vector<linarr::Arrangement> nola_random;
  std::vector<linarr::Arrangement> nola_goto;
};

/// One table's protocol, as its driver in bench/ runs it.
struct TableSpec {
  const char* id;
  std::vector<core::GClass> classes;
  bool nola;        ///< evaluate on NOLA; tuning always uses GOLA (§4.3.1)
  bool goto_start;  ///< start (and tune) from Goto's arrangement
  double typical_cost;
  double typical_delta;
  std::vector<std::uint64_t> budgets;
  std::uint64_t move_seed;  ///< stream id of the perturbation RNG
  bool figure2;             ///< Table 4.2(b): a Figure 2 column too
};

TableSpec table_4_1() {
  auto classes = core::table41_classes();
  classes.push_back(core::GClass::kCohoonSahni);
  return {"t41", classes, false, false, 80.0, 2.0, {600, 900, 1200}, 7,
          false};
}

TableSpec table_4_2a() {
  return {"t42a", core::table42_classes(), false, true, 65.0, 1.5,
          {600, 900, 1200}, 11, false};
}

TableSpec table_4_2b() {
  return {"t42b", core::table42_classes(), false, false, 80.0, 2.0,
          {18'000}, 13, true};
}

TableSpec table_4_2c() {
  return {"t42c", core::table42_classes(), true, false, 80.0, 2.0,
          {600, 900, 1200}, 17, false};
}

std::vector<netlist::Netlist> gola_set(Context& ctx) {
  const SpanScope span{ctx.probe, "netlist::gola_test_set"};
  return netlist::gola_test_set(kInstances, netlist::GolaParams{15, 150},
                                ctx.seed);
}

std::vector<netlist::Netlist> nola_set(Context& ctx) {
  const SpanScope span{ctx.probe, "netlist::nola_test_set"};
  return netlist::nola_test_set(kInstances,
                                netlist::NolaParams{15, 150, 2, 6}, ctx.seed);
}

std::vector<linarr::Arrangement> random_starts(
    const std::vector<netlist::Netlist>& set, Context& ctx) {
  const SpanScope span{ctx.probe, "linarr::Arrangement::random"};
  std::vector<linarr::Arrangement> out;
  for (std::size_t i = 0; i < set.size(); ++i) {
    util::Rng rng{util::derive_seed(ctx.seed + 1, i)};
    out.push_back(linarr::Arrangement::random(set[i].num_cells(), rng));
  }
  return out;
}

std::vector<linarr::Arrangement> goto_starts(
    const std::vector<netlist::Netlist>& set, Context& ctx) {
  std::vector<linarr::Arrangement> out;
  for (const auto& nl : set) {
    const SpanScope span{ctx.probe, "linarr::goto_arrangement"};
    out.push_back(linarr::goto_arrangement(nl));
  }
  return out;
}

long long total_density(const std::vector<netlist::Netlist>& set,
                        const std::vector<linarr::Arrangement>& starts,
                        Context& ctx) {
  const SpanScope span{ctx.probe, "linarr::density_of"};
  long long total = 0;
  for (std::size_t i = 0; i < set.size(); ++i) {
    total += linarr::density_of(set[i], starts[i]);
  }
  return total;
}

std::unique_ptr<core::Problem> make_linarr(const netlist::Netlist& nl,
                                           const linarr::Arrangement& start,
                                           Context& ctx, std::uint64_t solve) {
  std::unique_ptr<core::Problem> problem;
  {
    const SpanScope span{ctx.probe, "linarr::LinArrProblem", solve};
    problem = std::make_unique<linarr::LinArrProblem>(nl, start);
  }
  return instrument(std::move(problem), Layer::kLinarr, ctx.probe);
}

/// The best solution's density, recounted from scratch, must equal the
/// runner's best cost, and the problem must pass its own deep check (live
/// in invariant-checking builds).
void verify_linarr(const netlist::Netlist& nl, const core::Problem& problem,
                   const core::RunResult& result, Context& ctx,
                   std::uint64_t solve) {
  const SpanScope span{ctx.probe, "bench::check", solve};
  problem.check_invariants();
  const int best = linarr::density_of(
      nl, linarr::Arrangement::from_order(result.best_state));
  ctx.check(static_cast<double>(best) == result.best_cost &&
                problem.cost() == result.final_cost,
            "linarr: best or final cost differs from a full recount");
}

/// The §4.2.1 tuning pass for one class on the GOLA training set.
double tune(const TableSpec& spec, core::GClass cls, const LinarrInputs& in,
            Context& ctx) {
  if (!core::g_class_uses_scale(cls)) return 1.0;
  const auto& starts = spec.goto_start ? in.gola_goto : in.gola_random;
  const core::ProblemFactory factory = [&](std::size_t i) {
    return make_linarr(in.gola[i], starts[i], ctx, 0);
  };
  core::TunerOptions options;
  options.budget = kTuneBudget;
  options.num_instances = std::min(kInstances, in.gola.size());
  options.seed = ctx.seed + 2;
  options.typical_cost = spec.typical_cost;
  options.typical_delta = spec.typical_delta;
  SpanScope span{ctx.probe, "core::tune_scale"};
  const core::TuneResult result = core::tune_scale(cls, factory, options);
  // Every Figure 1 training run spends exactly its budget.
  const std::uint64_t ticks =
      result.scores.size() * options.num_instances * options.budget;
  span.set_ticks(ticks);
  ctx.ticks += ticks;
  return result.best_scale;
}

/// One Figure 1 (or Figure 2) run on instance `i`; returns its reduction.
/// With `root` set, the run is observed as restart `job` of that recorder
/// and its metrics merge into `*metrics`.
double solve_linarr(const TableSpec& spec, const netlist::Netlist& nl,
                    const linarr::Arrangement& start, core::GClass cls,
                    double scale, std::uint64_t budget, bool figure2,
                    std::size_t i, Context& ctx, const obs::Recorder* root,
                    std::uint64_t job, obs::RunMetrics* metrics) {
  SolveTimer timer{ctx};
  auto problem = make_linarr(nl, start, ctx, timer.id());
  core::GParams params;
  params.scale = scale;
  params.num_nets = nl.num_nets();
  const auto g = core::make_g(cls, params);
  util::Rng rng{util::derive_seed(spec.move_seed, i)};
  obs::Recorder rec = root != nullptr ? root->for_restart(job, 0, nullptr)
                                      : obs::Recorder{};
  if (rec.on()) rec.restart_begin(problem->cost());
  core::RunResult result;
  {
    SpanScope span{ctx.probe,
                   figure2 ? "core::run_figure2" : "core::run_figure1",
                   timer.id()};
    if (figure2) {
      core::Figure2Options options;
      options.budget = budget;
      options.recorder = &rec;
      result = core::run_figure2(*problem, *g, options, rng);
    } else {
      core::Figure1Options options;
      options.budget = budget;
      options.recorder = &rec;
      result = core::run_figure1(*problem, *g, options, rng);
    }
    span.set_ticks(result.ticks);
  }
  timer.done(result.ticks);
  verify_linarr(nl, *problem, result, ctx, timer.id());
  if (metrics != nullptr && result.metrics.collected) {
    result.metrics.restarts = 1;
    metrics->merge(result.metrics);
  }
  return result.reduction();
}

/// One table row: the class's total reduction over the 30 instances at
/// each budget (and, for Table 4.2(b), under Figure 2 as well).
std::string run_row(const TableSpec& spec, core::GClass cls, double scale,
                    const LinarrInputs& in, Context& ctx,
                    const obs::Recorder* root, obs::RunMetrics* metrics) {
  const auto& set = spec.nola ? in.nola : in.gola;
  const auto& starts =
      spec.nola ? (spec.goto_start ? in.nola_goto : in.nola_random)
                : (spec.goto_start ? in.gola_goto : in.gola_random);
  std::string digest = format("scale=%.17g", scale);
  std::uint64_t job = 0;
  for (const bool figure2 : {false, true}) {
    if (figure2 && !spec.figure2) break;
    for (const std::uint64_t budget : spec.budgets) {
      double total = 0.0;
      for (std::size_t i = 0; i < set.size(); ++i) {
        total += solve_linarr(spec, set[i], starts[i], cls, scale, budget,
                              figure2, i, ctx, root, job++, metrics);
      }
      digest += format(" %.17g", total);
    }
  }
  return digest;
}

std::string unit_id(const TableSpec& spec, core::GClass cls) {
  return std::string{spec.id} + "/" + core::g_class_name(cls);
}

/// Rows of several tables, interleaved so that any prefix of a pass mixes
/// the tables in proportion.
class TableRows : public Workload {
 public:
  explicit TableRows(std::vector<TableSpec> tables)
      : tables_(std::move(tables)) {
    std::size_t most = 0;
    for (const auto& t : tables_) most = std::max(most, t.classes.size());
    for (std::size_t r = 0; r < most; ++r) {
      for (std::size_t t = 0; t < tables_.size(); ++t) {
        if (r < tables_[t].classes.size()) rows_.emplace_back(t, r);
      }
    }
  }

  std::string setup(Context& ctx) override {
    in_ = LinarrInputs{};
    in_.gola = gola_set(ctx);
    in_.gola_random = random_starts(in_.gola, ctx);
    std::string digest = format(
        "gola_random=%lld", total_density(in_.gola, in_.gola_random, ctx));
    // Tables on NOLA or from Goto starts also report the Goto rows, which
    // need both start sets on both instance sets.
    if (std::any_of(tables_.begin(), tables_.end(), [](const TableSpec& t) {
          return t.nola || t.goto_start;
        })) {
      in_.nola = nola_set(ctx);
      in_.nola_random = random_starts(in_.nola, ctx);
      in_.gola_goto = goto_starts(in_.gola, ctx);
      in_.nola_goto = goto_starts(in_.nola, ctx);
      digest += format(
          " gola_goto=%lld nola_random=%lld nola_goto=%lld",
          total_density(in_.gola, in_.gola_goto, ctx),
          total_density(in_.nola, in_.nola_random, ctx),
          total_density(in_.nola, in_.nola_goto, ctx));
    }
    return digest;
  }

  [[nodiscard]] std::size_t num_units() const override {
    return rows_.size();
  }

  UnitResult run_unit(std::size_t index, Context& ctx) override {
    const auto [t, r] = rows_[index];
    const TableSpec& spec = tables_[t];
    const core::GClass cls = spec.classes[r];
    const double scale = tune(spec, cls, in_, ctx);
    return {unit_id(spec, cls),
            run_row(spec, cls, scale, in_, ctx, nullptr, nullptr)};
  }

 protected:
  std::vector<TableSpec> tables_;
  LinarrInputs in_;

 private:
  std::vector<std::pair<std::size_t, std::size_t>> rows_;
};

/// Table 4.1 with telemetry on: metrics and profile collected, a stride-16
/// JSONL trace, and the registry and profile exports written after each
/// row.  Its rows must equal the unobserved ones.
class ObservedTable41 final : public TableRows {
 public:
  ObservedTable41() : TableRows({table_4_1()}) {}

  UnitResult run_unit(std::size_t index, Context& ctx) override {
    const TableSpec& spec = tables_.front();
    const std::string trace_path = ctx.scratch + "/table41_observed.jsonl";
    if (index == 0) {
      // A fresh trace per pass keeps the file to one pass of rows.
      const SpanScope span{ctx.probe, "obs::export"};
      sink_ = std::make_unique<obs::JsonlFileSink>(trace_path);
      root_ = obs::Recorder{sink_.get(), /*collect_metrics=*/true,
                            /*trace_sample=*/16, /*run=*/0,
                            /*collect_profile=*/true};
    }
    const core::GClass cls = spec.classes[index];
    const double scale = tune(spec, cls, in_, ctx);

    // The traced run adds an unobserved twin of each row, which prices the
    // telemetry and checks that it leaves the row unchanged.
    std::string plain;
    if (ctx.probe.enabled()) {
      const std::uint64_t begin = now_ns();
      plain = run_row(spec, cls, scale, in_, ctx, nullptr, nullptr);
      ctx.probe.add_extra("obs.plain_ns",
                          static_cast<double>(now_ns() - begin));
    }
    const obs::Recorder row = root_.with_run(run_++);
    obs::RunMetrics metrics;
    const std::uint64_t events_before = sink_->written();
    const std::uintmax_t bytes_before = std::filesystem::file_size(trace_path);
    const std::uint64_t begin = now_ns();
    std::string digest = run_row(spec, cls, scale, in_, ctx, &row, &metrics);
    ctx.probe.add_extra("obs.observed_ns",
                        static_cast<double>(now_ns() - begin));
    if (ctx.probe.enabled()) {
      ctx.check(plain == digest, "telemetry changed a Table 4.1 row");
    }
    {
      const SpanScope span{ctx.probe, "obs::export"};
      obs::MetricsRegistry registry;
      registry.populate_from_run(metrics);
      write_file(ctx.scratch + "/table41_registry.json", registry.to_json());
      write_file(ctx.scratch + "/table41_profile.json",
                 metrics.profile.to_json());
      sink_->flush();
    }
    ctx.probe.add_extra("obs.trace.events",
                        static_cast<double>(sink_->written() - events_before));
    ctx.probe.add_extra(
        "obs.trace.bytes",
        static_cast<double>(std::filesystem::file_size(trace_path) -
                            bytes_before));
    return {unit_id(spec, cls), std::move(digest)};
  }

 private:
  static void write_file(const std::string& path, const std::string& text) {
    std::ofstream out{path};
    out << text;
    if (!out) throw std::runtime_error("cannot write " + path);
  }

  std::unique_ptr<obs::JsonlFileSink> sink_;
  obs::Recorder root_;
  std::uint64_t run_ = 0;
};

// --------------------------------------------------------------------------
// Parallel multistart: six-temperature Figure 1 restarts on one GOLA
// instance four times the paper's size.
// --------------------------------------------------------------------------

std::uint64_t fnv1a(const core::Snapshot& snap) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint32_t v : snap) {
    h ^= v;
    h *= 1099511628211ULL;
  }
  return h;
}

class MultistartT4 final : public Workload {
 public:
  std::string setup(Context& ctx) override {
    {
      const SpanScope span{ctx.probe, "netlist::random_gola"};
      util::Rng gen{util::derive_seed(ctx.seed, kCells)};
      nl_ = std::make_unique<netlist::Netlist>(
          netlist::random_gola(netlist::GolaParams{kCells, kNets}, gen));
    }
    {
      const SpanScope span{ctx.probe, "linarr::Arrangement::random"};
      util::Rng rng{util::derive_seed(ctx.seed + 3, kCells)};
      start_ = std::make_unique<linarr::Arrangement>(
          linarr::Arrangement::random(kCells, rng));
    }
    const SpanScope span{ctx.probe, "linarr::density_of"};
    return format("start_density=%d", linarr::density_of(*nl_, *start_));
  }

  [[nodiscard]] std::size_t num_units() const override { return kUnits; }

  UnitResult run_unit(std::size_t index, Context& ctx) override {
    const auto g = core::make_g(core::GClass::kSixTempAnnealing);
    const std::uint64_t calls_before = ctx.next_solve();
    std::uint64_t begin = now_ns();
    const core::MultistartResult result = leg(kThreads, index, *g, ctx);
    const std::uint64_t t4_ns = now_ns() - begin;
    const std::uint64_t runner_calls = ctx.next_solve() - calls_before - 1;
    ctx.ticks += result.aggregate.ticks;

    const core::RunResult& agg = result.aggregate;
    std::string digest = format(
        "restarts=%llu best=%.17g final=%.17g proposals=%llu accepts=%llu "
        "ticks=%llu state=%016llx",
        ull(result.restarts), agg.best_cost, agg.final_cost,
        ull(agg.proposals), ull(agg.accepts), ull(agg.ticks),
        ull(fnv1a(agg.best_state)));
    {
      const SpanScope span{ctx.probe, "bench::check"};
      const int best = linarr::density_of(
          *nl_, linarr::Arrangement::from_order(agg.best_state));
      ctx.check(static_cast<double>(best) == agg.best_cost &&
                    agg.ticks == kBudget && result.restarts == kRestarts,
                "multistart: best cost, ticks or restarts wrong");
    }
    if (ctx.probe.enabled()) {
      // The traced run's single-thread leg: same budget, same result.
      begin = now_ns();
      const core::MultistartResult t1 = leg(1, index, *g, ctx);
      const std::uint64_t t1_ns = now_ns() - begin;
      ctx.check(t1.restarts == result.restarts &&
                    t1.aggregate.best_cost == agg.best_cost &&
                    t1.aggregate.proposals == agg.proposals &&
                    t1.aggregate.accepts == agg.accepts &&
                    t1.aggregate.best_state == agg.best_state &&
                    t1.restart_best_costs == result.restart_best_costs,
                "multistart: 1-thread result differs from 4-thread result");
      ctx.probe.add_extra("parallel.t4_ns", static_cast<double>(t4_ns));
      ctx.probe.add_extra("parallel.t1_ns", static_cast<double>(t1_ns));
      ctx.probe.add_extra("parallel.runner_calls",
                          static_cast<double>(runner_calls));
      ctx.probe.add_extra("parallel.restarts",
                          static_cast<double>(result.restarts));
    }
    return {"ms/" + std::to_string(index), std::move(digest)};
  }

 private:
  static constexpr std::size_t kCells = 60;
  static constexpr std::size_t kNets = 600;
  static constexpr std::uint64_t kBudget = 2'000'000;
  static constexpr std::uint64_t kRestarts = 100;
  static constexpr unsigned kThreads = 4;
  static constexpr std::size_t kUnits = 8;

  core::MultistartResult leg(unsigned threads, std::size_t index,
                             const core::GFunction& g, Context& ctx) {
    auto problem = make_linarr(*nl_, *start_, ctx, 0);
    SpanScope span{ctx.probe, "core::parallel_multistart"};
    span.set_arg(threads);
    const std::int64_t parent = ctx.probe.innermost();
    // Only the 4-thread calls are the workload's solves; the traced run's
    // 1-thread legs would skew the latencies.
    const bool counted = threads == kThreads;
    const core::Runner runner = [&g, &ctx, parent, counted](
                                    core::Problem& p, std::uint64_t budget,
                                    util::Rng& rng, const obs::Recorder&) {
      const auto* timed = ctx.probe.enabled()
                              ? dynamic_cast<const TimedProblem*>(&p)
                              : nullptr;
      Span worker;
      worker.name = "core::run_figure1";
      worker.parent = parent;
      worker.solve = ctx.next_solve();
      worker.thread = ctx.probe.on_driver_thread() ? 0U : 1U;
      if (timed != nullptr) {
        worker.problem_ns = timed->stats().total_ns();
        worker.problem_calls = timed->stats().total_calls();
      }
      worker.begin = now_ns();
      core::Figure1Options options;
      options.budget = budget;
      core::RunResult run = core::run_figure1(p, g, options, rng);
      worker.end = now_ns();
      if (counted) ctx.record_solve(worker.end - worker.begin, run.ticks);
      if (timed != nullptr) {
        worker.problem_ns = timed->stats().total_ns() - worker.problem_ns;
        worker.problem_calls =
            timed->stats().total_calls() - worker.problem_calls;
        worker.ticks = run.ticks;
        ctx.probe.add_worker_span(worker);
      }
      return run;
    };
    core::ParallelMultistartOptions options;
    options.multistart.total_budget = kBudget;
    options.multistart.budget_per_start = kBudget / kRestarts;
    options.num_threads = threads;
    util::Rng rng{ctx.seed + 4 + index};
    core::MultistartResult result =
        core::parallel_multistart(*problem, runner, options, rng);
    span.set_ticks(result.aggregate.ticks);
    return result;
  }

  std::unique_ptr<netlist::Netlist> nl_;
  std::unique_ptr<linarr::Arrangement> start_;
};

// --------------------------------------------------------------------------
// Substrates: the tsp_compare and partition_compare protocols at 4x their
// default budgets (MCOPT_BENCH_SCALE=4).
// --------------------------------------------------------------------------

constexpr std::uint64_t kSubstrateScale = 4;

/// Forwards to `inner` and notes the proposal count at which an accepted
/// move first improves on the running best and reaches `target`: the work
/// tsp_compare reports SA needing to match the constructive heuristic.
class TargetWatch final : public core::Problem {
 public:
  TargetWatch(std::unique_ptr<core::Problem> inner, double target)
      : inner_(std::move(inner)), target_(target), best_(inner_->cost()) {}

  [[nodiscard]] double cost() const override { return inner_->cost(); }
  double propose(util::Rng& rng) override {
    ++proposals_;
    proposed_ = inner_->propose(rng);
    return proposed_;
  }
  void accept() override {
    inner_->accept();
    if (proposed_ < best_) {
      best_ = proposed_;
      if (hit_ == 0 && best_ <= target_) hit_ = proposals_;
    }
  }
  void reject() override { inner_->reject(); }
  void descend(util::WorkBudget& budget) override { inner_->descend(budget); }
  void randomize(util::Rng& rng) override { inner_->randomize(rng); }
  [[nodiscard]] core::Snapshot snapshot() const override {
    return inner_->snapshot();
  }
  void snapshot_into(core::Snapshot& out) const override {
    inner_->snapshot_into(out);
  }
  void restore(const core::Snapshot& snap) override { inner_->restore(snap); }
  void check_invariants() const override { inner_->check_invariants(); }

  /// 0 when the target was never reached.
  [[nodiscard]] std::uint64_t ticks_to_target() const noexcept {
    return hit_;
  }

 private:
  std::unique_ptr<core::Problem> inner_;
  double target_;
  double best_;
  double proposed_ = 0.0;
  std::uint64_t proposals_ = 0;
  std::uint64_t hit_ = 0;
};

struct TspCase {
  std::uint64_t budget;
  tsp::TspInstance instance;
  util::Rng gen;  ///< generator state after the instance was drawn
};

struct PartitionCase {
  netlist::Netlist graph;
  std::vector<std::uint8_t> start;
  int start_cut;
  util::Rng gen;  ///< generator state after the start was drawn
};

bool close_to(double a, double b) {
  return std::abs(a - b) <= 1e-6 * std::max(1.0, std::abs(b));
}

class Substrates final : public Workload {
 public:
  std::string setup(Context& ctx) override {
    tsp_.clear();
    parts_.clear();
    double tour_sum = 0.0;
    long long cut_sum = 0;
    for (std::size_t k = 0; k < 2 * kUnits; ++k) {
      const std::size_t i = k / 2;
      const bool large = k % 2 == 1;
      const std::size_t n = large ? 100 : 50;
      util::Rng gen{util::derive_seed(ctx.seed + 40, 100 * n + i)};
      {
        const SpanScope span{ctx.probe, "tsp::TspInstance::random_euclidean"};
        auto instance = tsp::TspInstance::random_euclidean(n, gen, 1000.0);
        tour_sum += tsp::tour_length(instance, tsp::identity_order(n));
        const std::uint64_t budget =
            kSubstrateScale *
            (n == 50 ? std::uint64_t{300'000} : std::uint64_t{600'000});
        tsp_.push_back({budget, std::move(instance), gen});
      }
      const std::size_t cells = large ? 80 : 40;
      util::Rng part_gen{util::derive_seed(ctx.seed + 50, 1000 * cells + i)};
      const SpanScope span{ctx.probe, "netlist::random_graph"};
      auto graph = netlist::random_graph(cells, 3 * cells, part_gen);
      util::Rng start_rng = part_gen.split();
      const auto start = partition::PartitionState::random(graph, start_rng);
      cut_sum += start.cut();
      parts_.push_back({std::move(graph), start.sides(), start.cut(),
                        part_gen});
    }
    return format("tour_sum=%.17g cut_sum=%lld", tour_sum, cut_sum);
  }

  [[nodiscard]] std::size_t num_units() const override { return kUnits; }

  /// Instance pair `index` of both sizes: every unit holds the same mix of
  /// solve kinds, whose latencies differ 1000-fold, so the latency
  /// percentiles do not move with where the window ends.
  UnitResult run_unit(std::size_t index, Context& ctx) override {
    std::string digest;
    for (const std::size_t k : {2 * index, 2 * index + 1}) {
      if (k % 2 == 1) digest += " || ";
      digest += run_tsp(tsp_[k], ctx);
      digest += " | ";
      digest += run_partition(parts_[k], ctx);
    }
    return {"sub/" + std::to_string(index), std::move(digest)};
  }

 private:
  static constexpr std::size_t kUnits = 10;

  struct SaOutcome {
    double best;
    std::uint64_t ticks_to_target;
  };

  /// tsp_compare's SA: Figure 1 over 25 uniform temperatures up to `tau`.
  static SaOutcome anneal(const TspCase& c, double tau, double target,
                          util::Rng& rng, Context& ctx) {
    SolveTimer timer{ctx};
    const std::size_t n = c.instance.size();
    std::unique_ptr<core::Problem> tour;
    {
      const SpanScope span{ctx.probe, "tsp::TspProblem", timer.id()};
      tour = std::make_unique<tsp::TspProblem>(c.instance,
                                               tsp::random_order(n, rng));
    }
    TargetWatch watch{instrument(std::move(tour), Layer::kTsp, ctx.probe),
                      target};
    const auto g = core::make_annealing_g(core::uniform_schedule(tau, 25));
    core::RunResult result;
    {
      SpanScope span{ctx.probe, "core::run_figure1", timer.id()};
      core::Figure1Options options;
      options.budget = c.budget;
      result = core::run_figure1(watch, *g, options, rng);
      span.set_ticks(result.ticks);
    }
    timer.done(result.ticks);
    {
      const SpanScope span{ctx.probe, "bench::check", timer.id()};
      watch.check_invariants();
      ctx.check(tsp::is_valid_order(result.best_state, n) &&
                    close_to(tsp::tour_length(c.instance, result.best_state),
                             result.best_cost),
                "tsp: SA best tour invalid or its length differs");
    }
    return {result.best_cost, watch.ticks_to_target()};
  }

  static std::string run_tsp(const TspCase& c, Context& ctx) {
    const std::size_t n = c.instance.size();
    double stewart = 0.0;
    std::uint64_t stewart_ticks = 0;
    {
      // Hull + cheapest insertion + a bounded Or-opt polish, the stand-in
      // for Stewart's CCAO.
      SolveTimer timer{ctx};
      {
        SpanScope span{ctx.probe, "tsp::construct", timer.id()};
        auto built = tsp::hull_cheapest_insertion_counted(c.instance);
        util::WorkBudget polish{static_cast<std::uint64_t>(3 * n) * n};
        tsp::or_opt_descent(c.instance, built.order, polish);
        stewart = tsp::tour_length(c.instance, built.order);
        stewart_ticks = built.evaluations + polish.spent();
        span.set_ticks(stewart_ticks);
        ctx.check(tsp::is_valid_order(built.order, n),
                  "tsp: constructed tour is not a permutation");
      }
      timer.done(stewart_ticks);
    }
    util::Rng gen = c.gen;
    util::Rng sa_rng = gen.split();
    const SaOutcome sa = anneal(c, 250.0, stewart, sa_rng, ctx);
    util::Rng hot_rng = gen.split();
    const SaOutcome hot = anneal(c, 2500.0, stewart, hot_rng, ctx);
    util::Rng two_opt_rng = gen.split();
    SolveTimer timer{ctx};
    tsp::RestartResult two_opt;
    {
      SpanScope span{ctx.probe, "tsp::restarted_two_opt", timer.id()};
      two_opt = tsp::restarted_two_opt(c.instance, c.budget, two_opt_rng);
      span.set_ticks(two_opt.ticks);
    }
    timer.done(two_opt.ticks);
    {
      const SpanScope span{ctx.probe, "bench::check", timer.id()};
      ctx.check(tsp::is_valid_order(two_opt.best_order, n) &&
                    close_to(tsp::tour_length(c.instance, two_opt.best_order),
                             two_opt.best_length),
                "tsp: 2-opt best tour invalid or its length differs");
    }
    return format("stewart=%.17g/%llu sa=%.17g/%llu hot=%.17g/%llu "
                  "two_opt=%.17g",
                  stewart, ull(stewart_ticks), sa.best,
                  ull(sa.ticks_to_target), hot.best,
                  ull(hot.ticks_to_target), two_opt.best_length);
  }

  enum class Method { kAnnealing, kGOne, kDescent };

  static double partition_run(const PartitionCase& c, Method method,
                              std::uint64_t budget, util::Rng& rng,
                              Context& ctx) {
    SolveTimer timer{ctx};
    std::unique_ptr<core::Problem> problem;
    {
      const SpanScope span{ctx.probe, "partition::PartitionProblem",
                           timer.id()};
      problem = std::make_unique<partition::PartitionProblem>(
          partition::PartitionState{c.graph, c.start});
    }
    problem = instrument(std::move(problem), Layer::kPartition, ctx.probe);
    core::RunResult result;
    if (method == Method::kAnnealing) {
      SpanScope span{ctx.probe, "core::simulated_annealing", timer.id()};
      core::AnnealOptions options;  // Kirkpatrick: Y1 = 10, x0.9, k = 6
      options.budget = budget;
      result = core::simulated_annealing(*problem, options, rng);
      span.set_ticks(result.ticks);
    } else if (method == Method::kGOne) {
      SpanScope span{ctx.probe, "core::run_figure1", timer.id()};
      const auto g = core::make_g(core::GClass::kGOne);
      core::Figure1Options options;
      options.budget = budget;
      result = core::run_figure1(*problem, *g, options, rng);
      span.set_ticks(result.ticks);
    } else {
      SpanScope span{ctx.probe, "core::random_descent", timer.id()};
      result = core::random_descent(*problem, budget, rng);
      span.set_ticks(result.ticks);
    }
    timer.done(result.ticks);
    const SpanScope span{ctx.probe, "bench::check", timer.id()};
    problem->check_invariants();
    const std::vector<std::uint8_t> sides(result.best_state.begin(),
                                          result.best_state.end());
    ctx.check(static_cast<double>(
                  partition::PartitionState{c.graph, sides}.cut()) ==
                  result.best_cost,
              "partition: best cut differs from a full recount");
    return result.best_cost;
  }

  static std::string run_partition(const PartitionCase& c, Context& ctx) {
    SolveTimer timer{ctx};
    partition::KlResult kl;
    {
      SpanScope span{ctx.probe, "partition::kernighan_lin", timer.id()};
      kl = partition::kernighan_lin(c.graph, c.start);
      span.set_ticks(kl.evaluations);
    }
    timer.done(kl.evaluations);
    {
      const SpanScope span{ctx.probe, "bench::check", timer.id()};
      ctx.check(partition::PartitionState{c.graph, kl.sides}.cut() == kl.cut,
                "partition: KL cut differs from a full recount");
    }
    // partition_compare's Monte Carlo budget, 4x KL's evaluation count,
    // times the substrate scale.
    const std::uint64_t budget = kSubstrateScale * 4 * kl.evaluations;
    util::Rng gen = c.gen;
    util::Rng sa_rng = gen.split();
    const double sa = partition_run(c, Method::kAnnealing, budget, sa_rng, ctx);
    util::Rng g1_rng = gen.split();
    const double g1 = partition_run(c, Method::kGOne, budget, g1_rng, ctx);
    util::Rng rd_rng = gen.split();
    const double rd = partition_run(c, Method::kDescent, budget, rd_rng, ctx);
    return format("start=%d kl=%d/%llu sa=%.17g g1=%.17g descent=%.17g",
                  c.start_cut, kl.cut, ull(kl.evaluations), sa, g1, rd);
  }

  std::vector<TspCase> tsp_;
  std::vector<PartitionCase> parts_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "paper_tables") {
    return std::make_unique<TableRows>(
        std::vector<TableSpec>{table_4_1(), table_4_2a(), table_4_2c()});
  }
  if (name == "fig2_long") {
    return std::make_unique<TableRows>(
        std::vector<TableSpec>{table_4_2b()});
  }
  if (name == "multistart_t4") return std::make_unique<MultistartT4>();
  if (name == "substrates") return std::make_unique<Substrates>();
  if (name == "table41_observed") return std::make_unique<ObservedTable41>();
  return nullptr;
}

}  // namespace mcopt::benchmark
