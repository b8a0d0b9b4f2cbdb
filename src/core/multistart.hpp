// Multistart: repeat a Monte Carlo run from fresh random solutions under a
// shared work budget, keeping the best result.
//
// This is the protocol §2 describes for the 2-opt baseline ("given enough
// starting random tours to make its run time comparable to that of
// simulated annealing"), generalized to any runner.  Restarts matter for
// the paper's methodology: an equal-time comparison against a cheap
// descent method is only fair if the descent gets to spend its leftover
// time on more starts.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/problem.hpp"
#include "core/result.hpp"
#include "obs/recorder.hpp"
#include "util/rng.hpp"

namespace mcopt::core {

/// Runs one attempt from the problem's current solution with the given
/// tick budget (e.g. a lambda wrapping run_figure1 with fixed options).
/// The recorder is scoped to this restart (correct restart/worker stamps);
/// pass it to the runner's options (or ignore it — it is off when the
/// engine was given no recorder).
using Runner = std::function<RunResult(
    Problem&, std::uint64_t budget, util::Rng&, const obs::Recorder&)>;

struct MultistartOptions {
  /// Total ticks across all restarts.  A restart that terminates early is
  /// charged only what it consumed, so the leftover funds further restarts
  /// (the paper's equal-time protocol).
  std::uint64_t total_budget = 30'000;
  /// Ticks per restart; the last restart gets the (possibly smaller)
  /// remainder.  Must be >= 1.
  std::uint64_t budget_per_start = 3'000;
  /// Randomize the problem before every restart (including the first).
  /// When false the first restart continues from the current solution.
  bool randomize_first = true;
  /// Optional telemetry (src/obs).  The engine derives a restart-scoped
  /// recorder per start (emitting restart_begin and aggregate-level
  /// new_best events) and hands it to the runner; the engine buffers each
  /// restart's events in a private shard and drains them in index order,
  /// so the trace stream is thread-count-invariant except for `worker`
  /// stamps and worker_steal events.
  const obs::Recorder* recorder = nullptr;
};

struct MultistartResult {
  /// Best cost over all restarts, with summed work counters; initial_cost
  /// is the first restart's, final_cost the last restart's.
  RunResult aggregate;
  std::uint64_t restarts = 0;
  /// best_cost of each individual restart, in restart order — the history
  /// that aggregate.best_cost is the running minimum of, so trace-level
  /// new_best events can be reconciled against the result.
  std::vector<double> restart_best_costs;
};

/// Throws std::invalid_argument on a null runner, zero budget_per_start, or
/// budget_per_start > total_budget.  This is core::parallel_multistart()
/// with one thread: every restart runs on `problem`, which on return holds
/// the last restart's final solution.
///
/// RNG contract: one output of `rng` seeds a master stream, and restart i
/// draws exclusively from util::Rng::split(master, i).  The caller's rng
/// therefore advances by exactly one output regardless of how many restarts
/// run, and core::parallel_multistart() reproduces the result bit-for-bit
/// with any thread count.
[[nodiscard]] MultistartResult multistart(Problem& problem,
                                          const Runner& runner,
                                          const MultistartOptions& options,
                                          util::Rng& rng);

}  // namespace mcopt::core
