#include "linarr/problem.hpp"

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/invariant.hpp"

namespace mcopt::linarr {

LinArrProblem::LinArrProblem(const Netlist& netlist, Arrangement start,
                             MoveKind move_kind, Objective objective)
    : state_(netlist, std::move(start)),
      move_kind_(move_kind),
      objective_(objective) {
  if (netlist.num_cells() < 2) {
    throw std::invalid_argument("LinArrProblem: need at least two cells");
  }
}

double LinArrProblem::objective_value() const noexcept {
  return objective_ == Objective::kDensity
             ? static_cast<double>(state_.density())
             : static_cast<double>(state_.total_span());
}

double LinArrProblem::speculative_objective() const noexcept {
  return objective_ == Objective::kDensity
             ? static_cast<double>(state_.speculative_density())
             : static_cast<double>(state_.speculative_total_span());
}

double LinArrProblem::cost() const { return objective_value(); }

// mcopt: hot
double LinArrProblem::speculate(std::size_t a, std::size_t b) {
  if (move_kind_ == MoveKind::kPairwiseInterchange) {
    state_.speculate_swap(a, b);
  } else {
    state_.speculate_move(a, b);
  }
  return speculative_objective();
}

// mcopt: hot
double LinArrProblem::propose(util::Rng& rng) {
  if (pending_) {
    throw std::logic_error("propose: a perturbation is already pending");
  }
  const auto [a, b] = rng.next_distinct_pair(state_.arrangement().size());
  pending_ = true;
  return speculate(a, b);
}

// mcopt: hot
void LinArrProblem::accept() {
  if (!pending_) throw std::logic_error("accept: no pending perturbation");
  state_.commit_speculation();
  pending_ = false;
}

// mcopt: hot
void LinArrProblem::reject() {
  if (!pending_) throw std::logic_error("reject: no pending perturbation");
  state_.discard_speculation();
  pending_ = false;
}

bool LinArrProblem::try_improving_move(std::size_t a, std::size_t b,
                                       double before) {
  if (speculate(a, b) < before) {
    state_.commit_speculation();
    return true;
  }
  state_.discard_speculation();
  return false;
}

void LinArrProblem::descend(util::WorkBudget& budget) {
  if (pending_) throw std::logic_error("descend: a perturbation is pending");
  const std::size_t n = state_.arrangement().size();
  bool improved = true;
  while (improved && !budget.exhausted()) {
    improved = false;
    for (std::size_t a = 0; a + 1 < n && !budget.exhausted(); ++a) {
      for (std::size_t b = a + 1; b < n && !budget.exhausted(); ++b) {
        const double before = objective_value();
        budget.charge();
        if (try_improving_move(a, b, before)) {
          improved = true;
          continue;
        }
        if (move_kind_ == MoveKind::kSingleExchange) {
          // Single exchange is directional: try a->b, then b->a.
          if (budget.exhausted()) break;
          budget.charge();
          if (try_improving_move(b, a, before)) improved = true;
        }
      }
    }
  }
}

void LinArrProblem::randomize(util::Rng& rng) {
  if (pending_) throw std::logic_error("randomize: a perturbation is pending");
  state_.reset(Arrangement::random(state_.arrangement().size(), rng));
}

core::Snapshot LinArrProblem::snapshot() const {
  const auto& order = state_.arrangement().order();
  return core::Snapshot(order.begin(), order.end());
}

void LinArrProblem::snapshot_into(core::Snapshot& out) const {
  const auto& order = state_.arrangement().order();
  out.assign(order.begin(), order.end());
}

std::unique_ptr<core::Problem> LinArrProblem::clone() const {
  return std::make_unique<LinArrProblem>(*this);
}

void LinArrProblem::restore(const core::Snapshot& snap) {
  if (pending_) throw std::logic_error("restore: a perturbation is pending");
  state_.reset(Arrangement::from_order(
      std::vector<CellId>(snap.begin(), snap.end())));
}

void LinArrProblem::check_invariants() const {
  MCOPT_CHECK(!pending_, "deep check with a perturbation pending");
  MCOPT_CHECK(state_.arrangement().is_consistent(),
              "arrangement order/position maps diverged");
  MCOPT_CHECK(state_.verify(),
              "incremental density state disagrees with full recompute");
}

bool LinArrProblem::is_local_optimum() {
  const std::size_t n = state_.arrangement().size();
  const double h0 = objective_value();
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b) continue;
      if (move_kind_ == MoveKind::kPairwiseInterchange && b < a) {
        continue;  // swaps are symmetric
      }
      const double h = speculate(a, b);
      state_.discard_speculation();
      if (h < h0) return false;
    }
  }
  return true;
}

}  // namespace mcopt::linarr
