// Balanced partitioning as a core::Problem.
//
// The random perturbation is a cross-side pair swap, which preserves the
// balance constraint exactly (the feasibility requirement of §1's "let j be
// a feasible solution ... obtained from i as a result of a random
// perturbation").  descend() sweeps all cross-side pairs to local
// optimality, mirroring the pairwise-interchange descent of the linear
// arrangement problem.
#pragma once

#include <memory>

#include "core/problem.hpp"
#include "partition/partition.hpp"

namespace mcopt::partition {

class PartitionProblem final : public core::Problem {
 public:
  /// Starts from `start` (must be balanced).  The underlying netlist must
  /// outlive the problem.  propose() scores the swap speculatively
  /// (PartitionState::speculate_swap): accept() commits it, reject() only
  /// moves the two cells' wide-net counts back.
  explicit PartitionProblem(PartitionState start);

  // core::Problem
  [[nodiscard]] double cost() const override {
    return static_cast<double>(state_.cut());
  }
  double propose(util::Rng& rng) override;
  void accept() override;
  void reject() override;
  void descend(util::WorkBudget& budget) override;
  void randomize(util::Rng& rng) override;
  [[nodiscard]] core::Snapshot snapshot() const override;
  void snapshot_into(core::Snapshot& out) const override;
  void restore(const core::Snapshot& snap) override;
  void check_invariants() const override;
  /// Deep copy sharing only the immutable netlist.
  [[nodiscard]] std::unique_ptr<core::Problem> clone() const override;

  [[nodiscard]] const PartitionState& state() const noexcept { return state_; }

 private:
  PartitionState state_;
  bool pending_ = false;
};

}  // namespace mcopt::partition
