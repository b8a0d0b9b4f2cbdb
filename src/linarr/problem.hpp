// GOLA / NOLA as a core::Problem (§4.1).
//
// The solution is an arrangement; the cost is its density (or, optionally,
// the total span — an ablation objective).  Two perturbation strategies
// from the paper are available: pairwise interchange (used throughout §4)
// and single exchange, i.e. remove-and-reinsert ([COHO83a]'s alternative).
// The same move kind drives both the random perturbations of Figures 1/2
// and the systematic descent of Figure 2, as §4.2.1 prescribes ("locally
// optimal with respect to the perturbation strategy").
#pragma once

#include <cstddef>
#include <memory>

#include "core/problem.hpp"
#include "linarr/density.hpp"

namespace mcopt::linarr {

enum class MoveKind {
  kPairwiseInterchange,  ///< swap the cells at two random positions
  kSingleExchange,       ///< remove one cell, reinsert at a random position
};

enum class Objective {
  kDensity,    ///< the paper's h: max crossings over boundaries
  kTotalSpan,  ///< ablation: sum of crossings (wirelength-like)
};

class LinArrProblem final : public core::Problem {
 public:
  /// Starts from `start`; `netlist` must outlive the problem.  propose()
  /// scores the move speculatively (DensityState::speculate_swap /
  /// speculate_move): accept() commits it, reject() only discards the
  /// per-move scratch.
  LinArrProblem(const Netlist& netlist, Arrangement start,
                MoveKind move_kind = MoveKind::kPairwiseInterchange,
                Objective objective = Objective::kDensity);

  // core::Problem
  [[nodiscard]] double cost() const override;
  double propose(util::Rng& rng) override;
  void accept() override;
  void reject() override;
  /// Figure 2's descent: first-improvement sweeps over the pairs (a, b),
  /// a < b, in row order, one tick per evaluated move (two per pair for a
  /// single exchange, one per direction), until a sweep improves nothing
  /// or the budget runs out.  A move of positions a < b changes cuts only
  /// on boundaries [a, b), so under the density only the pairs with
  /// a <= the first boundary at the maximum and b > the last one are
  /// scored; the others are charged their ticks in bulk, without being
  /// scored, so the budget runs out on the same tick and every trajectory
  /// equals the full sweep's.  The total span scores every pair.
  void descend(util::WorkBudget& budget) override;
  void randomize(util::Rng& rng) override;
  [[nodiscard]] core::Snapshot snapshot() const override;
  void snapshot_into(core::Snapshot& out) const override;
  void restore(const core::Snapshot& snap) override;
  void check_invariants() const override;
  /// Deep copy sharing only the immutable netlist.
  [[nodiscard]] std::unique_ptr<core::Problem> clone() const override;

  /// Read access for reporting and tests.
  [[nodiscard]] const DensityState& state() const noexcept { return state_; }
  [[nodiscard]] const Arrangement& arrangement() const noexcept {
    return state_.arrangement();
  }
  [[nodiscard]] MoveKind move_kind() const noexcept { return move_kind_; }

  /// True when no pairwise interchange (resp. single exchange) lowers the
  /// cost; Figure 2 tests assert this postcondition of descend().  O(n^2)
  /// evaluations: it scores every pair, without descend()'s pruning, so it
  /// checks that pruning instead of repeating it.
  [[nodiscard]] bool is_local_optimum();

 private:
  double objective_value() const noexcept;
  double speculative_objective() const noexcept;
  /// Speculatively evaluates the swap/move (by move_kind_) of (a, b) and
  /// returns its objective; the speculation stays open.
  double speculate(std::size_t a, std::size_t b);
  /// The pairs (a, b), a < b, whose move can lower the cost: a <= a_max and
  /// b >= b_min.  Under the density, a_max is the first boundary at the
  /// maximum and b_min one past the last (O(n) scan of the cuts); under
  /// the total span, every pair.
  struct ImprovablePairs {
    std::size_t a_max;
    std::size_t b_min;
  };
  [[nodiscard]] ImprovablePairs improvable_pairs() const noexcept;
  /// speculate(a, b), committed iff the candidate improves on `before`.
  /// Returns true when committed.
  bool try_improving_move(std::size_t a, std::size_t b, double before);

  DensityState state_;
  MoveKind move_kind_;
  Objective objective_;
  bool pending_ = false;
};

}  // namespace mcopt::linarr
