// TSP as a core::Problem: random 2-opt (or segment-relocation / Or-opt)
// perturbations, 2-opt descent.
//
// The tour length is maintained incrementally from move deltas; a periodic
// resync against the exact length bounds floating-point drift (verified by
// tests to stay under 1e-6 relative).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/problem.hpp"
#include "tsp/local_search.hpp"
#include "tsp/tour.hpp"

namespace mcopt::tsp {

enum class TspMoveKind {
  kTwoOpt,  ///< reverse a random segment
  kOrOpt,   ///< relocate a random 1-3 city segment
};

class TspProblem final : public core::Problem {
 public:
  /// Starts from `start`; `instance` must outlive the problem.  propose()
  /// only computes the move delta — the tour is rewritten on accept(), so
  /// a rejected move never touches the order at all.
  TspProblem(const TspInstance& instance, Order start,
             TspMoveKind move_kind = TspMoveKind::kTwoOpt);

  // core::Problem
  [[nodiscard]] double cost() const override { return length_; }
  double propose(util::Rng& rng) override;
  void accept() override;
  void reject() override;
  void descend(util::WorkBudget& budget) override;
  void randomize(util::Rng& rng) override;
  [[nodiscard]] core::Snapshot snapshot() const override;
  void snapshot_into(core::Snapshot& out) const override;
  void restore(const core::Snapshot& snap) override;
  void check_invariants() const override;
  /// Deep copy sharing only the immutable instance.
  [[nodiscard]] std::unique_ptr<core::Problem> clone() const override;

  [[nodiscard]] const Order& order() const noexcept { return order_; }
  [[nodiscard]] const TspInstance& instance() const noexcept {
    return *instance_;
  }
  [[nodiscard]] TspMoveKind move_kind() const noexcept { return move_kind_; }

 private:
  void resync_length();
  double propose_two_opt(util::Rng& rng);
  double propose_or_opt(util::Rng& rng);

  const TspInstance* instance_;
  Order order_;
  TspMoveKind move_kind_;
  double length_ = 0.0;

  bool pending_ = false;
  std::size_t pending_i_ = 0;
  std::size_t pending_j_ = 0;    // 2-opt: segment end; Or-opt: insertion point
  std::size_t pending_len_ = 0;  // Or-opt segment length
  double pending_delta_ = 0.0;

  std::uint64_t accepts_since_resync_ = 0;
  static constexpr std::uint64_t kResyncInterval = 4096;
};

}  // namespace mcopt::tsp
