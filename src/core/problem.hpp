// The optimization-problem interface consumed by the Monte Carlo runners.
//
// The paper's framework (§1, §3) needs very little from a problem: a cost
// h(i), a random perturbation producing a neighbour j, the ability to commit
// or discard that perturbation, and — for the Figure 2 strategy — descent to
// a local optimum with respect to a systematic neighbourhood.  Problems are
// stateful: they hold the current solution i.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/budget.hpp"
#include "util/rng.hpp"

namespace mcopt::core {

/// Opaque serialized solution, used for best-so-far bookkeeping and for
/// handing results back to callers.  Each problem documents its encoding
/// (a permutation for linear arrangement and TSP, side bits for partition).
using Snapshot = std::vector<std::uint32_t>;

class Problem {
 public:
  virtual ~Problem() = default;

  /// h(i) of the current solution.
  [[nodiscard]] virtual double cost() const = 0;

  /// Draws one random perturbation (e.g. a pairwise interchange, §4.2.1)
  /// and returns h(j), the cost of the perturbed solution.  Exactly one of
  /// accept()/reject() must follow before the next propose()/descend().
  /// The runners never read cost() while a perturbation is pending: the
  /// library's problems evaluate j without committing it (cost() stays
  /// h(i)), but a problem may equally apply the move here and undo it in
  /// reject().
  virtual double propose(util::Rng& rng) = 0;

  /// Commits the pending perturbation: j becomes the current solution.
  virtual void accept() = 0;

  /// Discards the pending perturbation: the current solution stays i.
  virtual void reject() = 0;

  /// Figure 2, Step 2: repeatedly applies improving moves from the
  /// systematic neighbourhood until none remains or `budget` is exhausted.
  /// Every candidate evaluation charges one tick.  Must leave the problem
  /// with no pending perturbation.
  virtual void descend(util::WorkBudget& budget) = 0;

  /// Replaces the current solution with a uniformly random feasible one.
  virtual void randomize(util::Rng& rng) = 0;

  /// Serializes the current solution.
  [[nodiscard]] virtual Snapshot snapshot() const = 0;

  /// Serializes the current solution into `out`, reusing its capacity.
  /// The runners call this on every best-so-far improvement — a hot path —
  /// so problems should override it to avoid the temporary the default
  /// (out = snapshot()) allocates.
  virtual void snapshot_into(Snapshot& out) const { out = snapshot(); }

  /// Restores a solution previously produced by snapshot().
  virtual void restore(const Snapshot& snap) = 0;

  /// An independent deep copy sharing only immutable inputs (the instance /
  /// netlist the problem was built on).  The parallel multistart engine
  /// gives each worker thread its own clone; a clone must never alias
  /// mutable state with its source.  Returns nullptr when the problem does
  /// not support cloning (the default), in which case the parallel engine
  /// refuses to run on more than one thread.
  [[nodiscard]] virtual std::unique_ptr<Problem> clone() const {
    return nullptr;
  }

  /// Deep self-verification: recompute every incrementally-maintained
  /// quantity from scratch and compare (util/invariant.hpp).  Throws
  /// util::InvariantViolation on divergence.  Must be side-effect free,
  /// must not consume randomness, and is only meaningful when no
  /// perturbation is pending.  The runners call this every
  /// `invariant_check_interval` ticks in MCOPT_CHECK_INVARIANTS builds.
  virtual void check_invariants() const {}

 protected:
  Problem() = default;
  Problem(const Problem&) = default;
  Problem& operator=(const Problem&) = default;
};

}  // namespace mcopt::core
