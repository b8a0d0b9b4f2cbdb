#include "linarr/problem.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
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

LinArrProblem::ImprovablePairs LinArrProblem::improvable_pairs()
    const noexcept {
  const std::size_t n = state_.arrangement().size();
  if (objective_ != Objective::kDensity) return {n - 2, 0};
  // A move of positions a < b changes cuts only on boundaries [a, b), so
  // it lowers the density only if it covers every boundary at the maximum.
  const int density = state_.density();
  std::size_t first = 0;
  while (state_.cut_at(first) != density) ++first;
  std::size_t last = n - 2;
  while (state_.cut_at(last) != density) --last;
  return {first, last + 1};
}

void LinArrProblem::descend(util::WorkBudget& budget) {
  if (pending_) throw std::logic_error("descend: a perturbation is pending");
  const std::size_t n = state_.arrangement().size();
  // A single exchange tries a->b, then b->a: two ticks per pair.
  const std::uint64_t ticks_per_pair =
      move_kind_ == MoveKind::kSingleExchange ? 2 : 1;
  // Charges `pairs` unscored pairs what the full sweep would have spent on
  // them: their ticks, or the rest of the budget if it runs out first (the
  // sweep stops on the tick it runs out, also between a single exchange's
  // two directions).  pairs < n^2 / 2 < 2^63 for n <= kMaxCells, so the
  // product cannot overflow once pairs is below remaining().
  const auto skip = [&budget, ticks_per_pair](std::uint64_t pairs) {
    const std::uint64_t left = budget.remaining();
    budget.charge(pairs >= left ? left
                                : std::min(pairs * ticks_per_pair, left));
  };
  bool improved = true;
  while (improved && !budget.exhausted()) {
    improved = false;
    ImprovablePairs pairs = improvable_pairs();
    for (std::size_t a = 0; a + 1 < n; ++a) {
      std::size_t b = a + 1;
      for (; b < n && a <= pairs.a_max; ++b) {
        if (b < pairs.b_min) {
          skip(pairs.b_min - b);
          b = pairs.b_min;
        }
        if (budget.exhausted()) return;
        const double before = objective_value();
        budget.charge();
        bool moved = try_improving_move(a, b, before);
        if (!moved && move_kind_ == MoveKind::kSingleExchange) {
          if (budget.exhausted()) return;
          budget.charge();
          moved = try_improving_move(b, a, before);
        }
        if (moved) {
          improved = true;
          pairs = improvable_pairs();
        }
      }
      if (a > pairs.a_max) {
        // No later pair of the sweep starts at or before a_max: charge the
        // rest of row a and the (n-a-1)(n-a-2)/2 pairs of the rows after
        // it (the product is below n^2 < 2^64).
        const std::uint64_t below = n - a - 1;
        skip(static_cast<std::uint64_t>(n - b) + below * (below - 1) / 2);
        break;
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
