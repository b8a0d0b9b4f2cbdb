// LinArrProblem::descend scores only the pairs that can lower the density
// and charges the rest in bulk.  These tests hold it to the full
// first-improvement sweep it replaces, written here on DensityState's
// public speculation API: same ticks spent, same final arrangement and
// cost, at budgets that run out anywhere in a sweep.
#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "linarr/problem.hpp"
#include "netlist/generator.hpp"

namespace mcopt::linarr {
namespace {

using netlist::Netlist;

constexpr std::uint64_t kUnlimited = std::numeric_limits<std::uint64_t>::max();

struct Outcome {
  std::uint64_t spent;
  std::vector<CellId> order;
  double cost;
  bool stalled = false;  // a commit did not lower the cost, or made it < 0
};

double value(const DensityState& s, Objective objective) {
  return objective == Objective::kDensity
             ? static_cast<double>(s.density())
             : static_cast<double>(s.total_span());
}

double speculative_value(const DensityState& s, Objective objective) {
  return objective == Objective::kDensity
             ? static_cast<double>(s.speculative_density())
             : static_cast<double>(s.speculative_total_span());
}

// The unpruned sweep: every pair is speculated and discarded unless it
// improves, one tick per direction tried.  Each commit must lower the
// committed cost and leave it nonnegative, so an unlimited budget ends
// after at most the start cost's number of sweeps.  A wrong speculation
// that commits false improvements, or drives a corrupted committed count
// below zero, would otherwise sweep forever: the sweep fails the test and
// stops there instead.
Outcome full_sweep(const Netlist& nl, const Arrangement& start, MoveKind kind,
                   Objective objective, std::uint64_t ticks) {
  DensityState s{nl, start};
  util::WorkBudget budget{ticks};
  bool stalled = false;
  const auto try_move = [&](std::size_t a, std::size_t b, double before) {
    if (kind == MoveKind::kPairwiseInterchange) {
      s.speculate_swap(a, b);
    } else {
      s.speculate_move(a, b);
    }
    if (speculative_value(s, objective) < before) {
      s.commit_speculation();
      const double after = value(s, objective);
      if (!(after < before) || after < 0) {
        ADD_FAILURE() << "move " << a << " -> " << b << " committed as an "
                      << "improvement, but the cost went from " << before
                      << " to " << after;
        stalled = true;
      }
      return true;
    }
    s.discard_speculation();
    return false;
  };
  const std::size_t n = start.size();
  bool improved = true;
  while (improved && !budget.exhausted() && !stalled) {
    improved = false;
    for (std::size_t a = 0; a + 1 < n && !budget.exhausted() && !stalled;
         ++a) {
      for (std::size_t b = a + 1; b < n && !budget.exhausted() && !stalled;
           ++b) {
        const double before = value(s, objective);
        budget.charge();
        if (try_move(a, b, before)) {
          improved = true;
          continue;
        }
        if (kind == MoveKind::kSingleExchange) {
          if (budget.exhausted()) break;
          budget.charge();
          if (try_move(b, a, before)) improved = true;
        }
      }
    }
  }
  return {budget.spent(), s.arrangement().order(), value(s, objective),
          stalled};
}

Outcome pruned(const Netlist& nl, const Arrangement& start, MoveKind kind,
               Objective objective, std::uint64_t ticks) {
  LinArrProblem problem{nl, start, kind, objective};
  util::WorkBudget budget{ticks};
  problem.descend(budget);
  EXPECT_TRUE(problem.state().verify());
  return {budget.spent(), problem.arrangement().order(), problem.cost()};
}

// Runs both descents from `start` on a budget of `ticks` and compares them.
void expect_same(const Netlist& nl, const Arrangement& start, MoveKind kind,
                 Objective objective, std::uint64_t ticks) {
  SCOPED_TRACE("budget " + std::to_string(ticks));
  const Outcome want = full_sweep(nl, start, kind, objective, ticks);
  // The library's descent makes the same false commits; on an unlimited
  // budget it would not return.
  ASSERT_FALSE(want.stalled);
  const Outcome got = pruned(nl, start, kind, objective, ticks);
  EXPECT_EQ(got.spent, want.spent);
  EXPECT_EQ(got.order, want.order);
  EXPECT_EQ(got.cost, want.cost);
}

struct Instance {
  std::string name;
  Netlist netlist;
};

std::vector<Instance> random_instances(std::size_t n) {
  util::Rng rng{n};
  const std::size_t nets = 10 * n;
  const std::size_t max_pins = n < 6 ? n : 6;
  return {{"gola " + std::to_string(n), netlist::random_gola({n, nets}, rng)},
          {"nola " + std::to_string(n),
           netlist::random_nola({n, nets, 2, max_pins}, rng)}};
}

constexpr MoveKind kMoveKinds[] = {MoveKind::kPairwiseInterchange,
                                   MoveKind::kSingleExchange};

const char* move_name(MoveKind kind) {
  return kind == MoveKind::kPairwiseInterchange ? "pairwise" : "single";
}

// Every `stride`-th budget from 0 to one past the unlimited descent's
// spend (with stride 1 the budget runs out on every tick of every sweep),
// and the unlimited budget.
void expect_same_at_every_budget(const Netlist& nl, std::uint64_t seed,
                                 Objective objective,
                                 std::uint64_t stride = 1) {
  util::Rng rng{seed};
  const Arrangement start = Arrangement::random(nl.num_cells(), rng);
  for (const MoveKind kind : kMoveKinds) {
    SCOPED_TRACE(move_name(kind));
    const Outcome unlimited =
        full_sweep(nl, start, kind, objective, kUnlimited);
    ASSERT_FALSE(unlimited.stalled);
    for (std::uint64_t ticks = 0; ticks <= unlimited.spent + 1;
         ticks += stride) {
      expect_same(nl, start, kind, objective, ticks);
    }
    expect_same(nl, start, kind, objective, kUnlimited);
  }
}

TEST(DescentPruningTest, SmallInstancesAtEveryBudget) {
  for (const std::size_t n : {2, 3, 15}) {
    for (const Instance& instance : random_instances(n)) {
      SCOPED_TRACE(instance.name);
      expect_same_at_every_budget(instance.netlist, 100 + n,
                                  Objective::kDensity);
    }
  }
}

TEST(DescentPruningTest, SixtyCellsAtSampledBudgets) {
  for (const Instance& instance : random_instances(60)) {
    SCOPED_TRACE(instance.name);
    util::Rng rng{60};
    const Arrangement start = Arrangement::random(60, rng);
    for (const MoveKind kind : kMoveKinds) {
      SCOPED_TRACE(move_name(kind));
      const Outcome unlimited =
          full_sweep(instance.netlist, start, kind, Objective::kDensity,
                     kUnlimited);
      ASSERT_FALSE(unlimited.stalled);
      // A sweep is 1770 pairs.  More than one sweep means the descent
      // moved, so the sample runs out both before and after a move.
      const std::uint64_t sweep =
          kind == MoveKind::kSingleExchange ? 2 * 1770 : 1770;
      ASSERT_GT(unlimited.spent, sweep);
      for (const std::uint64_t ticks : {std::uint64_t{0}, std::uint64_t{1},
                                        unlimited.spent, kUnlimited}) {
        expect_same(instance.netlist, start, kind, Objective::kDensity,
                    ticks);
      }
      for (int i = 0; i < 12; ++i) {
        expect_same(instance.netlist, start, kind, Objective::kDensity,
                    1 + rng.next_below(unlimited.spent));
      }
    }
  }
}

// Density 0: every boundary is at the maximum, so the only scored pair is
// (0, n-1), and it cannot improve.
TEST(DescentPruningTest, NetlessInstance) {
  const Netlist nl = Netlist::Builder{15}.build();
  expect_same_at_every_budget(nl, 7, Objective::kDensity);
}

// One net over every cell crosses every boundary in any arrangement: a
// nonzero density with every boundary at the maximum.
TEST(DescentPruningTest, OneNetOverEveryCell) {
  Netlist::Builder builder{15};
  std::vector<CellId> all(15);
  for (std::size_t c = 0; c < all.size(); ++c) all[c] = static_cast<CellId>(c);
  builder.add_net(all);
  expect_same_at_every_budget(builder.build(), 8, Objective::kDensity);
}

// The total span prunes nothing: every pair is scored, as before.  It
// descends through many more sweeps than the density, so its budgets are
// sampled.
TEST(DescentPruningTest, TotalSpanScoresEveryPair) {
  for (const Instance& instance : random_instances(15)) {
    SCOPED_TRACE(instance.name);
    expect_same_at_every_budget(instance.netlist, 9, Objective::kTotalSpan,
                                29);
  }
}

}  // namespace
}  // namespace mcopt::linarr
