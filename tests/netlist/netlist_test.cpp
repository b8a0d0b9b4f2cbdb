#include "netlist/netlist.hpp"

#include <cstddef>
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace mcopt::netlist {
namespace {

Netlist tiny() {
  // 4 cells; nets: {0,1}, {1,2,3}, {0,3}.
  Netlist::Builder b{4};
  b.add_net({0, 1});
  b.add_net({1, 2, 3});
  b.add_net({0, 3});
  return b.build();
}

TEST(NetlistBuilderTest, RejectsZeroCells) {
  EXPECT_THROW(Netlist::Builder{0}, std::invalid_argument);
}

// CellId indexes the cells and must hold the count; a count past it is
// rejected before anything is allocated.
TEST(NetlistBuilderTest, RejectsACellCountCellIdCannotIndex) {
  EXPECT_THROW(Netlist::Builder{kMaxCells + 1}, std::invalid_argument);
  EXPECT_THROW(Netlist::Builder{std::numeric_limits<std::size_t>::max()},
               std::invalid_argument);
}

TEST(NetlistBuilderTest, RejectsOutOfRangePin) {
  Netlist::Builder b{3};
  EXPECT_THROW(b.add_net({0, 3}), std::invalid_argument);
}

TEST(NetlistBuilderTest, RejectsSinglePinNet) {
  Netlist::Builder b{3};
  EXPECT_THROW(b.add_net({1}), std::invalid_argument);
  EXPECT_THROW(b.add_net({1, 1}), std::invalid_argument);  // dup collapses
}

TEST(NetlistBuilderTest, CollapsesDuplicatePins) {
  Netlist::Builder b{3};
  b.add_net({0, 1, 0, 1, 2});
  const Netlist nl = b.build();
  EXPECT_EQ(nl.pins(0).size(), 3u);
}

TEST(NetlistBuilderTest, ReturnsSequentialNetIds) {
  Netlist::Builder b{3};
  EXPECT_EQ(b.add_net({0, 1}), 0u);
  EXPECT_EQ(b.add_net({1, 2}), 1u);
  EXPECT_EQ(b.num_nets(), 2u);
}

TEST(NetlistTest, CountsMatch) {
  const Netlist nl = tiny();
  EXPECT_EQ(nl.num_cells(), 4u);
  EXPECT_EQ(nl.num_nets(), 3u);
  EXPECT_EQ(nl.num_pins(), 7u);
}

TEST(NetlistTest, PinsAreSortedDistinct) {
  const Netlist nl = tiny();
  const auto pins = nl.pins(1);
  ASSERT_EQ(pins.size(), 3u);
  EXPECT_EQ(pins[0], 1u);
  EXPECT_EQ(pins[1], 2u);
  EXPECT_EQ(pins[2], 3u);
}

TEST(NetlistTest, InverseIncidenceIsConsistent) {
  const Netlist nl = tiny();
  // Every (net, pin) pair must appear in the inverse map and vice versa.
  std::size_t forward_pairs = 0;
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    for (const CellId c : nl.pins(n)) {
      const auto nets = nl.nets_of(c);
      EXPECT_NE(std::find(nets.begin(), nets.end(), n), nets.end())
          << "net " << n << " missing from cell " << c;
      ++forward_pairs;
    }
  }
  std::size_t inverse_pairs = 0;
  for (CellId c = 0; c < nl.num_cells(); ++c) {
    inverse_pairs += nl.nets_of(c).size();
  }
  EXPECT_EQ(forward_pairs, inverse_pairs);
}

TEST(NetlistTest, DegreeCountsIncidentNets) {
  const Netlist nl = tiny();
  EXPECT_EQ(nl.degree(0), 2u);
  EXPECT_EQ(nl.degree(1), 2u);
  EXPECT_EQ(nl.degree(2), 1u);
  EXPECT_EQ(nl.degree(3), 2u);
}

TEST(NetlistTest, IsGraphOnlyForAllTwoPinNets) {
  EXPECT_FALSE(tiny().is_graph());

  Netlist::Builder b{3};
  b.add_net({0, 1});
  b.add_net({1, 2});
  EXPECT_TRUE(b.build().is_graph());
}

TEST(NetlistTest, EmptyNetlistIsNotAGraph) {
  Netlist::Builder b{2};
  EXPECT_FALSE(b.build().is_graph());
}

TEST(NetlistTest, MaxNetSize) {
  EXPECT_EQ(tiny().max_net_size(), 3u);
  Netlist::Builder b{2};
  EXPECT_EQ(b.build().max_net_size(), 0u);
}

TEST(NetlistTest, ParallelNetsAreKept) {
  Netlist::Builder b{2};
  b.add_net({0, 1});
  b.add_net({0, 1});
  const Netlist nl = b.build();
  EXPECT_EQ(nl.num_nets(), 2u);
  EXPECT_EQ(nl.degree(0), 2u);
}

TEST(NetlistTest, DefaultConstructedIsEmpty) {
  Netlist nl;
  EXPECT_EQ(nl.num_cells(), 0u);
  EXPECT_EQ(nl.num_nets(), 0u);
  EXPECT_EQ(nl.max_net_size(), 0u);
}

}  // namespace
}  // namespace mcopt::netlist
