#include "tsp/problem.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <utility>

#include "util/invariant.hpp"

namespace mcopt::tsp {

TspProblem::TspProblem(const TspInstance& instance, Order start,
                       TspMoveKind move_kind)
    : instance_(&instance), order_(std::move(start)), move_kind_(move_kind) {
  if (!is_valid_order(order_, instance.size())) {
    throw std::invalid_argument("TspProblem: start is not a valid order");
  }
  length_ = tour_length(*instance_, order_);
}

// mcopt: hot
double TspProblem::propose_two_opt(util::Rng& rng) {
  const std::size_t n = order_.size();
  // Random 2-opt: i < j, excluding the (0, n-1) pair that shares an edge.
  std::size_t i;
  std::size_t j;
  do {
    auto [a, b] = rng.next_distinct_pair(n);
    i = std::min(a, b);
    j = std::max(a, b);
  } while (i == 0 && j == n - 1);
  // The delta reads only the four changed edges of the committed order.
  pending_delta_ = two_opt_delta(*instance_, order_, i, j);
  pending_i_ = i;
  pending_j_ = j;
  return length_ + pending_delta_;
}

// mcopt: hot
double TspProblem::propose_or_opt(util::Rng& rng) {
  const std::size_t n = order_.size();
  std::size_t i;
  std::size_t len;
  std::size_t k;
  do {
    len = 1 + static_cast<std::size_t>(rng.next_below(3));
    i = static_cast<std::size_t>(rng.next_below(n - len + 1));
    k = static_cast<std::size_t>(rng.next_below(n));
  } while ((k >= i && k < i + len) || k == (i + n - 1) % n || len >= n - 1);
  pending_delta_ = or_opt_delta(*instance_, order_, i, len, k);
  pending_i_ = i;
  pending_j_ = k;
  pending_len_ = len;
  return length_ + pending_delta_;
}

// mcopt: hot
double TspProblem::propose(util::Rng& rng) {
  if (pending_) {
    throw std::logic_error("propose: a perturbation is already pending");
  }
  pending_ = true;
  return move_kind_ == TspMoveKind::kTwoOpt ? propose_two_opt(rng)
                                            : propose_or_opt(rng);
}

// mcopt: hot
void TspProblem::accept() {
  if (!pending_) throw std::logic_error("accept: no pending perturbation");
  if (move_kind_ == TspMoveKind::kTwoOpt) {
    apply_two_opt(order_, pending_i_, pending_j_);
  } else {
    apply_or_opt(order_, pending_i_, pending_len_, pending_j_);
  }
  length_ += pending_delta_;
  pending_ = false;
  if (++accepts_since_resync_ >= kResyncInterval) resync_length();
}

// mcopt: hot
void TspProblem::reject() {
  if (!pending_) throw std::logic_error("reject: no pending perturbation");
  pending_ = false;  // the tour was never touched — nothing to undo
}

void TspProblem::descend(util::WorkBudget& budget) {
  if (pending_) throw std::logic_error("descend: a perturbation is pending");
  two_opt_descent(*instance_, order_, budget);
  resync_length();
}

void TspProblem::randomize(util::Rng& rng) {
  if (pending_) throw std::logic_error("randomize: a perturbation is pending");
  order_ = random_order(order_.size(), rng);
  resync_length();
}

core::Snapshot TspProblem::snapshot() const {
  return core::Snapshot(order_.begin(), order_.end());
}

void TspProblem::snapshot_into(core::Snapshot& out) const {
  out.assign(order_.begin(), order_.end());
}

std::unique_ptr<core::Problem> TspProblem::clone() const {
  return std::make_unique<TspProblem>(*this);
}

void TspProblem::restore(const core::Snapshot& snap) {
  if (pending_) throw std::logic_error("restore: a perturbation is pending");
  Order order(snap.begin(), snap.end());
  if (!is_valid_order(order, instance_->size())) {
    throw std::invalid_argument("TspProblem::restore: invalid snapshot");
  }
  order_ = std::move(order);
  resync_length();
}

void TspProblem::check_invariants() const {
  MCOPT_CHECK(!pending_, "deep check with a perturbation pending");
  MCOPT_CHECK(is_valid_order(order_, instance_->size()),
              "tour is no longer a permutation of the cities");
  // The incrementally-maintained length drifts by at most rounding between
  // resyncs; anything beyond 1e-6 relative means a bad move delta.
  const double exact = tour_length(*instance_, order_);
  MCOPT_CHECK(std::abs(length_ - exact) <=
                  1e-6 * std::max(1.0, std::abs(exact)),
              "incremental tour length drifted from exact recompute");
}

void TspProblem::resync_length() {
  length_ = tour_length(*instance_, order_);
  accepts_since_resync_ = 0;
}

}  // namespace mcopt::tsp
