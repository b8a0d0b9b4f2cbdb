#include "core/parallel.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "util/invariant.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace mcopt::core {

namespace {

/// parallel_for()'s shared state: the next unclaimed index and the first
/// exception a job threw.  Both are guarded by `mu`; the thread-safety
/// build rejects any unlocked touch.
struct JobCounter {
  util::Mutex mu;
  std::size_t next GUARDED_BY(mu) = 0;
  std::exception_ptr error GUARDED_BY(mu);

  /// Claims the next index below `count`; false when none is left.
  bool claim(std::size_t count, std::size_t* index) EXCLUDES(mu) {
    util::MutexLock lock{mu};
    if (next >= count) return false;
    *index = next++;
    return true;
  }

  /// Keeps the first failure and stops every further claim.
  void fail(std::size_t count, std::exception_ptr failure) EXCLUDES(mu) {
    util::MutexLock lock{mu};
    if (!error) error = std::move(failure);
    next = count;
  }

  [[nodiscard]] std::exception_ptr first_error() EXCLUDES(mu) {
    util::MutexLock lock{mu};
    return error;
  }
};

/// Everything one restart produces: the run itself plus the final solution,
/// so the fold can leave the caller's problem in the last restart's end
/// state, the restart's buffered trace events (drained into the caller's
/// sink in index order), and the slice it ran with (checked by the fold).
struct StartResult {
  RunResult run;
  Snapshot final_state;
  std::vector<obs::Event> events;
  std::uint64_t slice = 0;
};

/// Executes restart `index` with `slice` ticks on `problem`, including the
/// between-restart deep verification.  Deterministic given (index, slice,
/// start state); the recorder adds only the (worker, steal) stamps, which
/// are excluded from the determinism contract (obs/event.hpp).  Restart 0
/// is always the first job on a fresh problem (the caller's, or an unused
/// clone), so keeping its start needs no restore.
StartResult run_start(Problem& problem, const Runner& runner,
                      bool randomize, std::uint64_t master,
                      std::uint64_t index, std::uint64_t slice,
                      const obs::Recorder& root, unsigned worker) {
  util::Rng rng = util::Rng::split(master, index);
  if (randomize) problem.randomize(rng);
  StartResult out;
  out.slice = slice;
  // Buffer this restart's events privately; each shard has exactly one
  // writer (this thread), so no sink is ever shared across threads.
  obs::VectorSink shard;
  obs::Recorder rec =
      root.for_restart(index, worker, root.tracing() ? &shard : nullptr);
  const bool steal = worker != 0;
  if (rec.on()) {
    if (steal) rec.worker_steal();
    rec.restart_begin(problem.cost());
  }
  out.run = runner(problem, slice, rng, rec);
  // Scheduler observation, not simulation state: like the `worker` stamp on
  // events, worker_steals is excluded from the determinism contract.
  if (steal && out.run.metrics.collected) out.run.metrics.worker_steals = 1;
  if constexpr (util::kInvariantsEnabled) {
    problem.check_invariants();
  }
  problem.snapshot_into(out.final_state);
  out.events = shard.take();
  return out;
}

}  // namespace

void parallel_for(std::size_t count, unsigned threads,
                  const std::function<void(std::size_t index,
                                           unsigned worker)>& job) {
  if (threads <= 1) {
    for (std::size_t index = 0; index < count; ++index) job(index, 0);
    return;
  }
  JobCounter counter;
  auto drain = [&counter, &job, count](unsigned worker) {
    std::size_t index = 0;
    while (counter.claim(count, &index)) {
      try {
        job(index, worker);
      } catch (...) {
        counter.fail(count, std::current_exception());
      }
    }
  };
  const auto spawn =
      static_cast<unsigned>(std::min<std::size_t>(threads, count));
  std::vector<std::thread> pool;
  pool.reserve(spawn);
  try {
    for (unsigned worker = 1; worker <= spawn; ++worker) {
      pool.emplace_back(drain, worker);
    }
  } catch (...) {
    // A thread failed to start: the ones already running stop claiming,
    // and are joined below before the failure is rethrown.
    counter.fail(count, std::current_exception());
  }
  for (std::thread& thread : pool) thread.join();
  if (const std::exception_ptr error = counter.first_error()) {
    std::rethrow_exception(error);
  }
}

MultistartResult parallel_multistart(Problem& problem, const Runner& runner,
                                     const ParallelMultistartOptions& options,
                                     util::Rng& rng) {
  const MultistartOptions& opts = options.multistart;
  if (!runner) throw std::invalid_argument("parallel_multistart: null runner");
  if (opts.budget_per_start == 0) {
    throw std::invalid_argument(
        "parallel_multistart: budget_per_start must be >= 1");
  }
  if (opts.budget_per_start > opts.total_budget) {
    throw std::invalid_argument(
        "parallel_multistart: budget_per_start exceeds total_budget");
  }
  if (options.num_threads == 0) {
    throw std::invalid_argument("parallel_multistart: num_threads must be >= 1");
  }

  // Spawned worker w runs on clones[w - 1], which it makes on its own
  // thread before its first restart.  The copy is then allocated by that
  // thread: with a per-thread allocator arena (glibc malloc has one) no two
  // workers' per-move buffers share a cache line.  Cloned on the calling
  // thread, every clone would come from one arena, where reused free
  // chunks interleave them, and workers would slow each other by an amount
  // that changes from call to call.  The caller's problem is never run in
  // a round that has spawned workers, and clone_mu serializes the clone()
  // calls, so a clone() that writes to its source (to count itself, say)
  // stays race-free.  The first round always has a full slice, so with
  // more than one thread some worker calls clone() and a nullptr throws.
  std::vector<std::unique_ptr<Problem>> clones(options.num_threads);
  util::Mutex clone_mu;
  const auto worker_problem = [&](unsigned worker) -> Problem& {
    if (worker == 0) return problem;
    std::unique_ptr<Problem>& clone = clones[worker - 1];
    if (!clone) {
      {
        util::MutexLock lock{clone_mu};
        clone = problem.clone();
      }
      if (!clone) {
        throw std::invalid_argument(
            "parallel_multistart: Problem::clone() returned nullptr");
      }
    }
    return *clone;
  };

  // One master draw; restart i then sees Rng::split(master, i) no matter
  // which thread runs it or what ran before it there.
  const std::uint64_t master = rng.next();
  const std::uint64_t per_start = opts.budget_per_start;
  const std::uint64_t total = opts.total_budget;
  const std::uint64_t round_cap = 64ULL * options.num_threads;
  const obs::Recorder root =
      opts.recorder != nullptr ? *opts.recorder : obs::Recorder{};

  MultistartResult out;
  Snapshot last_final_state;
  std::uint64_t spent = 0;
  std::vector<StartResult> round;
  while (spent < total) {
    const std::uint64_t first = out.restarts;
    const std::uint64_t full = std::min((total - spent) / per_start, round_cap);
    // A remainder shorter than per_start runs alone, on the calling thread.
    const bool remainder = full == 0;
    const std::uint64_t slice = remainder ? total - spent : per_start;
    round.clear();
    round.resize(remainder ? 1 : full);
    parallel_for(round.size(), remainder ? 1 : options.num_threads,
                 [&](std::size_t i, unsigned worker) {
                   Problem& target = worker_problem(worker);
                   const std::uint64_t index = first + i;
                   round[i] = run_start(
                       target, runner, index > 0 || opts.randomize_first,
                       master, index, slice, root, worker);
                 });

    for (StartResult& start : round) {
      // Past a restart that charged more than its slice, the sequential
      // loop runs a shorter slice or stops: the rest of the round is stale.
      if (spent >= total || std::min(per_start, total - spent) != start.slice) {
        break;
      }
      const std::uint64_t index = out.restarts;
      // Drain the restart's shard into the caller's sink here, on the
      // calling thread, strictly in index order, so the stream is the same
      // at any thread count (worker stamps aside).
      if (obs::TraceSink* sink = root.sink()) {
        for (const obs::Event& event : start.events) sink->write(event);
      }
      obs::Recorder fold_rec = root.for_restart(index, 0, nullptr);

      // Charge what the run actually consumed (an early-terminating runner
      // leaves budget for more restarts); the max(., 1) floor guarantees
      // progress against a runner that reports zero ticks.
      spent += std::max<std::uint64_t>(start.run.ticks, 1);
      ++out.restarts;
      out.restart_best_costs.push_back(start.run.best_cost);
      if constexpr (util::kInvariantsEnabled) {
        ++out.aggregate.invariants.executed;
      }
      if (index == 0) {
        const util::InvariantStats checks = out.aggregate.invariants;
        out.aggregate = start.run;
        out.aggregate.invariants += checks;
        fold_rec.new_best(0, start.run.ticks, out.aggregate.best_cost);
      } else {
        out.aggregate.final_cost = start.run.final_cost;
        out.aggregate.proposals += start.run.proposals;
        out.aggregate.accepts += start.run.accepts;
        out.aggregate.uphill_accepts += start.run.uphill_accepts;
        out.aggregate.descent_steps += start.run.descent_steps;
        out.aggregate.ticks += start.run.ticks;
        out.aggregate.temperatures_visited += start.run.temperatures_visited;
        out.aggregate.invariants += start.run.invariants;
        out.aggregate.metrics.merge(start.run.metrics);
        if (start.run.best_cost < out.aggregate.best_cost) {
          out.aggregate.best_cost = start.run.best_cost;
          out.aggregate.best_state = start.run.best_state;
          fold_rec.new_best(0, start.run.ticks, out.aggregate.best_cost);
        }
      }
      last_final_state = std::move(start.final_state);
    }
  }

  if (out.aggregate.metrics.collected) {
    out.aggregate.metrics.restarts = out.restarts;
    if (!out.aggregate.metrics.profile.empty()) {
      // One root name at every thread count, so the deterministic tree
      // export is byte-identical across them.
      out.aggregate.metrics.profile.nest_under("multistart", out.restarts,
                                               out.aggregate.ticks);
    }
  }

  // Leave the caller's problem at the last folded restart's final solution.
  problem.restore(last_final_state);
  return out;
}

}  // namespace mcopt::core
