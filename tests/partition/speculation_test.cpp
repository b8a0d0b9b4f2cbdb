// Oracle suite for PartitionState's swap speculation.  Every cross-side
// pair is scored and compared with two flip()s on a copy, every discard
// must leave verify() true, and commits, discards, flips and copies (one
// taken mid-speculation) are interleaved over graphs with parallel nets,
// mixed 2-6-pin hypergraphs, two and three cells, and netlists with no
// two-pin nets, no wide nets or no nets at all.  The cut and the gains are
// also recounted from the netlist here, apart from verify().
#include "partition/partition.hpp"

#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "netlist/generator.hpp"

namespace mcopt::partition {
namespace {

int recount_cut(const Netlist& nl, const std::vector<std::uint8_t>& sides) {
  int cut = 0;
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    std::size_t zero = 0;
    for (const CellId c : nl.pins(n)) zero += sides[c] == 0;
    cut += zero > 0 && zero < nl.pins(n).size();
  }
  return cut;
}

int recount_gain(const Netlist& nl, const std::vector<std::uint8_t>& sides,
                 CellId c) {
  int gain = 0;
  for (const NetId n : nl.nets_of(c)) {
    const auto pins = nl.pins(n);
    if (pins.size() != 2) continue;
    gain += sides[pins[0]] != sides[pins[1]] ? 1 : -1;
  }
  return gain;
}

void expect_exact(const PartitionState& state) {
  const Netlist& nl = state.netlist();
  ASSERT_TRUE(state.verify());
  ASSERT_EQ(state.cut(), recount_cut(nl, state.sides()));
  for (CellId c = 0; c < nl.num_cells(); ++c) {
    ASSERT_EQ(state.gain(c), recount_gain(nl, state.sides(), c))
        << "cell " << c;
  }
}

// Scores every ordered cross-side pair; each discard must leave the state
// as it was.
void score_every_pair(PartitionState& state) {
  const std::size_t n = state.netlist().num_cells();
  const auto sides = state.sides();
  const int cut = state.cut();
  for (CellId a = 0; a < n; ++a) {
    for (CellId b = 0; b < n; ++b) {
      if (state.side(a) == state.side(b)) continue;
      PartitionState oracle{state};
      oracle.flip(a);
      oracle.flip(b);
      state.speculate_swap(a, b);
      ASSERT_EQ(state.speculative_cut(), oracle.cut())
          << "pair " << a << "," << b;
      ASSERT_EQ(state.cut(), cut);
      state.discard_speculation();
    }
  }
  ASSERT_EQ(state.sides(), sides);
  ASSERT_NO_FATAL_FAILURE(expect_exact(state));
}

struct Instance {
  std::string name;
  Netlist (*make)();
};

void PrintTo(const Instance& instance, std::ostream* os) {
  *os << instance.name;
}

Netlist graph_with_parallel_nets() {
  // 60 nets over 66 possible pairs: many pairs are joined more than once.
  util::Rng rng{11};
  return netlist::random_graph(12, 60, rng);
}

Netlist sparse_graph() {
  util::Rng rng{12};
  return netlist::random_graph(30, 45, rng);
}

Netlist mixed_hypergraph() {
  util::Rng rng{13};
  return netlist::random_nola(netlist::NolaParams{14, 40, 2, 6}, rng);
}

Netlist wide_nets_only() {
  util::Rng rng{14};
  return netlist::random_nola(netlist::NolaParams{12, 30, 3, 6}, rng);
}

Netlist two_cells() {
  Netlist::Builder b{2};
  b.add_net({0, 1});
  b.add_net({0, 1});
  return b.build();
}

Netlist three_cells() {
  Netlist::Builder b{3};
  b.add_net({0, 1});
  b.add_net({0, 1});
  b.add_net({1, 2});
  b.add_net({0, 1, 2});
  return b.build();
}

Netlist no_nets() { return Netlist::Builder{5}.build(); }

class PartitionOracleTest : public ::testing::TestWithParam<Instance> {};

TEST_P(PartitionOracleTest, EveryPairMatchesTwoFlipsUnderChurn) {
  const Netlist nl = GetParam().make();
  const std::size_t n = nl.num_cells();
  util::Rng rng{static_cast<std::uint64_t>(n) * 7919 + nl.num_nets()};
  PartitionState state = PartitionState::random(nl, rng);
  ASSERT_NO_FATAL_FAILURE(expect_exact(state));
  ASSERT_NO_FATAL_FAILURE(score_every_pair(state));

  for (int round = 0; round < 120; ++round) {
    const auto a = static_cast<CellId>(rng.next_below(n));
    CellId b = a;
    for (CellId c = 0; c < n; ++c) {
      const auto at = static_cast<CellId>((a + 1 + c) % n);
      if (state.side(at) != state.side(a)) {
        b = at;
        break;
      }
    }
    const auto op = rng.next_below(4);
    if (b == a || op == 0) {
      state.flip(a);
    } else {
      PartitionState oracle{state};
      oracle.flip(a);
      oracle.flip(b);
      const auto before = state.sides();
      state.speculate_swap(a, b);
      ASSERT_EQ(state.speculative_cut(), oracle.cut()) << "round " << round;
      if (op == 1) {
        state.commit_speculation();
        ASSERT_EQ(state.sides(), oracle.sides());
        ASSERT_EQ(state.cut(), oracle.cut());
      } else if (op == 2) {
        state.discard_speculation();
        ASSERT_EQ(state.sides(), before);
      } else {
        // A copy taken mid-speculation carries it: the copy commits, the
        // original discards, and assignment takes the committed copy.
        PartitionState copy{state};
        copy.commit_speculation();
        state.discard_speculation();
        ASSERT_EQ(state.sides(), before);
        ASSERT_NO_FATAL_FAILURE(expect_exact(state));
        ASSERT_EQ(copy.sides(), oracle.sides());
        state = copy;
      }
    }
    ASSERT_NO_FATAL_FAILURE(expect_exact(state)) << "round " << round;
    if (round % 15 == 0) {
      ASSERT_NO_FATAL_FAILURE(score_every_pair(state)) << "round " << round;
    }
  }
  ASSERT_NO_FATAL_FAILURE(score_every_pair(state));
}

INSTANTIATE_TEST_SUITE_P(
    Instances, PartitionOracleTest,
    ::testing::Values(Instance{"graph_parallel", graph_with_parallel_nets},
                      Instance{"graph_sparse", sparse_graph},
                      Instance{"mixed_2_to_6_pins", mixed_hypergraph},
                      Instance{"wide_only", wide_nets_only},
                      Instance{"two_cells", two_cells},
                      Instance{"three_cells", three_cells},
                      Instance{"no_nets", no_nets}),
    [](const ::testing::TestParamInfo<Instance>& info) {
      return info.param.name;
    });

// The instances cover what the suite claims: parallel two-pin nets, and
// both net kinds alone and mixed.
TEST(PartitionOracleInstancesTest, CoverBothNetKindsAndParallelNets) {
  const Netlist parallel = graph_with_parallel_nets();
  bool merged = false;
  for (const auto& nb : parallel.net_index().pairs) merged |= nb.weight > 2;
  EXPECT_TRUE(merged);
  EXPECT_TRUE(parallel.is_graph());
  const Netlist mixed = mixed_hypergraph();
  EXPECT_FALSE(mixed.net_index().pairs.empty());
  EXPECT_FALSE(mixed.net_index().wide_net.empty());
  const Netlist wide = wide_nets_only();
  EXPECT_TRUE(wide.net_index().pairs.empty());
}

}  // namespace
}  // namespace mcopt::partition
