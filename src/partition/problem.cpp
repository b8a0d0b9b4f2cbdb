#include "partition/problem.hpp"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/invariant.hpp"

namespace mcopt::partition {

PartitionProblem::PartitionProblem(PartitionState start)
    : state_(std::move(start)) {
  if (!state_.is_balanced()) {
    throw std::invalid_argument("PartitionProblem: start is not balanced");
  }
  if (state_.netlist().num_cells() < 2) {
    throw std::invalid_argument("PartitionProblem: need at least two cells");
  }
}

// mcopt: hot
double PartitionProblem::propose(util::Rng& rng) {
  if (pending_) {
    throw std::logic_error("propose: a perturbation is already pending");
  }
  // Uniform cross-side pair via rejection on uniform distinct pairs; at
  // balance, acceptance probability is ~1/2 per draw.
  const std::size_t n = state_.netlist().num_cells();
  CellId a;
  CellId b;
  do {
    const auto [x, y] = rng.next_distinct_pair(n);
    a = static_cast<CellId>(x);
    b = static_cast<CellId>(y);
  } while (state_.side(a) == state_.side(b));
  pending_ = true;
  state_.speculate_swap(a, b);
  return static_cast<double>(state_.speculative_cut());
}

// mcopt: hot
void PartitionProblem::accept() {
  if (!pending_) throw std::logic_error("accept: no pending perturbation");
  state_.commit_speculation();
  pending_ = false;
}

// mcopt: hot
void PartitionProblem::reject() {
  if (!pending_) throw std::logic_error("reject: no pending perturbation");
  state_.discard_speculation();
  pending_ = false;
}

void PartitionProblem::descend(util::WorkBudget& budget) {
  if (pending_) throw std::logic_error("descend: a perturbation is pending");
  const std::size_t n = state_.netlist().num_cells();
  bool improved = true;
  while (improved && !budget.exhausted()) {
    improved = false;
    for (CellId a = 0; a < n && !budget.exhausted(); ++a) {
      for (CellId b = a + 1; b < n && !budget.exhausted(); ++b) {
        if (state_.side(a) == state_.side(b)) continue;
        const int before = state_.cut();
        budget.charge();
        state_.speculate_swap(a, b);
        if (state_.speculative_cut() < before) {
          state_.commit_speculation();
          improved = true;
        } else {
          state_.discard_speculation();
        }
      }
    }
  }
}

void PartitionProblem::randomize(util::Rng& rng) {
  if (pending_) throw std::logic_error("randomize: a perturbation is pending");
  state_ = PartitionState::random(state_.netlist(), rng);
}

void PartitionProblem::check_invariants() const {
  MCOPT_CHECK(!pending_, "deep check with a perturbation pending");
  MCOPT_CHECK(state_.is_balanced(), "partition lost the balance constraint");
  MCOPT_CHECK(state_.verify(),
              "incremental cut disagrees with full recompute");
}

core::Snapshot PartitionProblem::snapshot() const {
  const auto& sides = state_.sides();
  return core::Snapshot(sides.begin(), sides.end());
}

void PartitionProblem::snapshot_into(core::Snapshot& out) const {
  const auto& sides = state_.sides();
  out.assign(sides.begin(), sides.end());
}

std::unique_ptr<core::Problem> PartitionProblem::clone() const {
  return std::make_unique<PartitionProblem>(*this);
}

void PartitionProblem::restore(const core::Snapshot& snap) {
  if (pending_) throw std::logic_error("restore: a perturbation is pending");
  std::vector<std::uint8_t> sides(snap.begin(), snap.end());
  state_ = PartitionState{state_.netlist(), std::move(sides)};
}

}  // namespace mcopt::partition
