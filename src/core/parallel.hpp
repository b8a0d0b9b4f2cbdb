// Parallel multistart: the restarts of core::multistart() executed across
// worker threads, bit-identical to a one-thread run.
//
// Restarts are embarrassingly parallel — each one randomizes, runs, and only
// its RunResult matters — so they are the natural unit for scaling the
// paper's equal-time protocol to multicore hardware.  Determinism is the
// hard constraint: every reproduced table is pinned to a seed, so the
// engine must return *exactly* the same result for any thread count and any
// OS scheduling.  Three mechanisms deliver that:
//
//   1. Stream-per-restart RNG.  The engine derives one master value from
//      the caller's rng and gives restart i the stream
//      util::Rng::split(master, i) (a SplitMix-style derivation).  A
//      restart's randomness is a pure function of its index.
//   2. Clone-per-worker problems.  Each spawned worker owns a deep copy
//      obtained from Problem::clone(), made on the worker's own thread;
//      no mutable state is shared between threads.
//   3. One index-ordered fold.  The calling thread folds the per-restart
//      RunResults into the aggregate strictly in index order (best
//      tie-breaks, counter sums, final_cost, invariant stats, tick
//      accounting).  multistart() is this engine on one thread, so there is
//      no second copy of the bookkeeping to drift.
//
// The one sequential dependence is the budget: how many restarts fit, and
// the size of the final remainder slice, depend on the ticks earlier
// restarts consumed.  The engine therefore runs in rounds.  A round runs
// n = min((total - spent) / per_start, 64 * num_threads) full-slice restarts
// through parallel_for() and then folds them; the remaining budget
// guarantees each of them a full slice unless a runner charges past its
// slice.  The fold stops at the first restart whose sequential slice,
// min(per_start, total - spent), differs from the slice it ran with and
// discards the rest of the round; the next round starts from the corrected
// spend.  A remainder slice shorter than per_start runs on the calling
// thread.
//
// The round cap is derived from the thread count, not a knob: every round
// ends at a barrier, and 64 restarts per worker keep that barrier idle for
// about 1/64 of the round.  The price is memory: a round buffers up to
// 64 * num_threads per-restart results (counters, best and final states,
// and — when tracing — the restart's events at 56 B each) until the fold.
//
// The only cross-thread state is parallel_for()'s util::Mutex-guarded index
// counter (util/sync.hpp) and the util::Mutex that serializes the workers'
// clone() calls; the `thread-safety` CMake preset makes any unlocked access
// to the counter a compile error.
#pragma once

#include <cstddef>
#include <functional>

#include "core/multistart.hpp"
#include "core/problem.hpp"
#include "util/rng.hpp"

namespace mcopt::core {

/// Runs job(index, worker) once for every index in [0, count) and returns
/// when all of them have finished.  With threads <= 1 the jobs run in index
/// order on the calling thread as worker 0.  Otherwise min(threads, count)
/// std::threads with worker ids 1..min(threads, count) claim indices from
/// one shared counter and are joined before the call returns; no two
/// threads share a worker id, so a job may use per-worker state keyed by it.
/// If a job throws, no further index is claimed and the first exception is
/// rethrown once every thread has joined.
void parallel_for(std::size_t count, unsigned threads,
                  const std::function<void(std::size_t index,
                                           unsigned worker)>& job);

struct ParallelMultistartOptions {
  /// Budgets and restart policy, interpreted exactly as multistart() does.
  MultistartOptions multistart;
  /// Worker threads.  Must be >= 1; the result is independent of this
  /// value.  1 runs every restart on the caller's problem and clones
  /// nothing.  Oversubscribing the hardware is allowed (useful for
  /// determinism tests); it costs throughput, not correctness.
  unsigned num_threads = 1;
};

/// Runs the restarts of multistart() on `options.num_threads` workers and
/// returns a MultistartResult bit-identical to multistart() with the same
/// problem state, runner, budgets, and rng state.  On return `problem`
/// holds the final solution of the last restart and the caller's rng has
/// advanced by exactly one output.
///
/// Requirements beyond multistart() when num_threads > 1:
/// Problem::clone() must return a real deep copy (non-null), and the runner
/// must be safe to call concurrently on distinct Problem instances (i.e. it
/// touches nothing shared; the library runners qualify).  Throws
/// std::invalid_argument on a null runner, zero budget_per_start,
/// budget_per_start > total_budget, zero num_threads, or — with more than
/// one thread — a problem whose clone() returns nullptr.
[[nodiscard]] MultistartResult parallel_multistart(
    Problem& problem, const Runner& runner,
    const ParallelMultistartOptions& options, util::Rng& rng);

}  // namespace mcopt::core
