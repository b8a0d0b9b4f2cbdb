#include "partition/partition.hpp"

#include <cstdint>
#include <gtest/gtest.h>

#include <stdexcept>

#include "netlist/generator.hpp"

namespace mcopt::partition {
namespace {

Netlist k4() {
  // Complete graph on 4 cells: any balanced bipartition cuts 4 edges.
  Netlist::Builder b{4};
  b.add_net({0, 1});
  b.add_net({0, 2});
  b.add_net({0, 3});
  b.add_net({1, 2});
  b.add_net({1, 3});
  b.add_net({2, 3});
  return b.build();
}

TEST(PartitionStateTest, RejectsBadSides) {
  const Netlist nl = k4();
  EXPECT_THROW((PartitionState{nl, {0, 1, 0}}), std::invalid_argument);
  EXPECT_THROW((PartitionState{nl, {0, 1, 0, 2}}), std::invalid_argument);
}

TEST(PartitionStateTest, CutOfK4Balanced) {
  const Netlist nl = k4();
  PartitionState state{nl, {0, 0, 1, 1}};
  EXPECT_EQ(state.cut(), 4);
  EXPECT_TRUE(state.is_balanced());
  EXPECT_EQ(state.side_count(0), 2u);
  EXPECT_EQ(state.side_count(1), 2u);
}

TEST(PartitionStateTest, DegenerateAllOneSideCutsNothing) {
  const Netlist nl = k4();
  PartitionState state{nl, {0, 0, 0, 0}};
  EXPECT_EQ(state.cut(), 0);
  EXPECT_FALSE(state.is_balanced());
}

TEST(PartitionStateTest, FlipUpdatesCutIncrementally) {
  const Netlist nl = k4();
  PartitionState state{nl, {0, 0, 1, 1}};
  state.flip(0);  // 1 0 1 1: cut = edges from cell 1 = 3
  EXPECT_EQ(state.cut(), 3);
  EXPECT_TRUE(state.verify());
  state.flip(0);
  EXPECT_EQ(state.cut(), 4);
  EXPECT_TRUE(state.verify());
}

TEST(PartitionStateTest, SwapPreservesBalance) {
  const Netlist nl = k4();
  PartitionState state{nl, {0, 0, 1, 1}};
  state.swap(0, 2);
  EXPECT_TRUE(state.is_balanced());
  EXPECT_EQ(state.cut(), 4);  // K4 is symmetric
  EXPECT_TRUE(state.verify());
}

TEST(PartitionStateTest, SwapSameSideThrows) {
  const Netlist nl = k4();
  PartitionState state{nl, {0, 0, 1, 1}};
  EXPECT_THROW(state.swap(0, 1), std::invalid_argument);
}

TEST(PartitionStateTest, MultiPinNetCutOnce) {
  // A 3-pin net split 2/1 counts as a single cut net.
  Netlist::Builder b{4};
  b.add_net({0, 1, 2});
  b.add_net({2, 3});
  const Netlist nl = b.build();
  PartitionState state{nl, {0, 0, 1, 1}};
  EXPECT_EQ(state.cut(), 1);  // only the 3-pin net straddles
  state.flip(2);              // 3-pin net healed, but {2,3} now straddles
  EXPECT_EQ(state.cut(), 1);
  EXPECT_TRUE(state.verify());
  state.flip(3);  // everything on side 0: no net cut
  EXPECT_EQ(state.cut(), 0);
  EXPECT_TRUE(state.verify());
}

TEST(PartitionStateTest, RandomIsBalancedAndCeilOnSideZero) {
  util::Rng rng{1};
  const Netlist nl = k4();
  for (int trial = 0; trial < 10; ++trial) {
    const PartitionState state = PartitionState::random(nl, rng);
    EXPECT_TRUE(state.is_balanced());
    EXPECT_EQ(state.side_count(0), 2u);
  }
}

TEST(PartitionStateTest, RandomOddCellCount) {
  Netlist::Builder b{5};
  b.add_net({0, 4});
  const Netlist nl = b.build();
  util::Rng rng{2};
  const PartitionState state = PartitionState::random(nl, rng);
  EXPECT_TRUE(state.is_balanced());
  EXPECT_EQ(state.side_count(0), 3u);  // ceil(5/2)
}

class PartitionChurnTest : public ::testing::TestWithParam<int> {};

TEST_P(PartitionChurnTest, IncrementalMatchesRecountUnderChurn) {
  util::Rng rng{static_cast<std::uint64_t>(GetParam())};
  const Netlist nl = netlist::random_graph(20, 60, rng);
  PartitionState state = PartitionState::random(nl, rng);
  for (int step = 0; step < 400; ++step) {
    const auto c = static_cast<CellId>(rng.next_below(20));
    state.flip(c);
    ASSERT_GE(state.cut(), 0);
    ASSERT_LE(state.cut(), 60);
    if (step % 20 == 0) {
      ASSERT_TRUE(state.verify()) << "step " << step;
    }
  }
  EXPECT_TRUE(state.verify());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionChurnTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// Speculation unit contract: speculate_swap records the exact cut of the
// cross-side swap without touching the committed state; commit makes it
// current; discard is a perfect no-op.  Two flips are the oracle.
TEST(PartitionSpeculationTest, SwapSpeculationMatchesFlipOracle) {
  util::Rng rng{93};
  const Netlist nl = netlist::random_graph(16, 48, rng);
  PartitionState spec = PartitionState::random(nl, rng);
  PartitionState oracle{spec};
  for (int trial = 0; trial < 200; ++trial) {
    CellId a = static_cast<CellId>(rng.next() % 16);
    while (spec.side(a) != 0) a = static_cast<CellId>(rng.next() % 16);
    CellId b = static_cast<CellId>(rng.next() % 16);
    while (spec.side(b) != 1) b = static_cast<CellId>(rng.next() % 16);
    const int before_cut = spec.cut();
    spec.speculate_swap(a, b);
    oracle.flip(a);
    oracle.flip(b);
    ASSERT_EQ(spec.speculative_cut(), oracle.cut()) << "trial " << trial;
    ASSERT_EQ(spec.cut(), before_cut);  // committed state untouched
    if (trial % 2 == 0) {
      spec.commit_speculation();
      ASSERT_EQ(spec.cut(), oracle.cut());
      ASSERT_EQ(spec.side(a), 1);
      ASSERT_EQ(spec.side(b), 0);
    } else {
      spec.discard_speculation();
      oracle.flip(a);  // undo the oracle
      oracle.flip(b);
      ASSERT_EQ(spec.cut(), before_cut);
    }
    if (trial % 25 == 0) {
      ASSERT_TRUE(spec.verify()) << "trial " << trial;
    }
  }
  EXPECT_TRUE(spec.verify());
}

// Copies are member-wise: a copied or assigned state speculates and
// commits exactly as the original does.
TEST(PartitionCopyTest, CopyAndAssignSpeculateLikeTheOriginal) {
  util::Rng rng{91};
  const Netlist nl = netlist::random_graph(16, 48, rng);
  PartitionState state = PartitionState::random(nl, rng);

  PartitionState copied{state};
  PartitionState assigned = PartitionState::random(nl, rng);
  assigned = state;
  EXPECT_EQ(assigned.cut(), state.cut());
  EXPECT_EQ(assigned.sides(), state.sides());

  CellId a = 0;
  while (state.side(a) != 0) ++a;
  CellId b = 0;
  while (state.side(b) != 1) ++b;
  state.speculate_swap(a, b);
  const int candidate = state.speculative_cut();
  state.commit_speculation();
  for (PartitionState* other : {&copied, &assigned}) {
    other->speculate_swap(a, b);
    EXPECT_EQ(other->speculative_cut(), candidate);
    other->commit_speculation();
    EXPECT_EQ(other->cut(), state.cut());
    EXPECT_EQ(other->sides(), state.sides());
    EXPECT_TRUE(other->verify());
  }
  EXPECT_TRUE(state.verify());
}

}  // namespace
}  // namespace mcopt::partition
