#include "netlist/generator.hpp"

#include <cstddef>
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "netlist/io.hpp"

namespace mcopt::netlist {
namespace {

TEST(RandomGolaTest, MatchesRequestedShape) {
  util::Rng rng{1};
  const Netlist nl = random_gola(GolaParams{15, 150}, rng);
  EXPECT_EQ(nl.num_cells(), 15u);
  EXPECT_EQ(nl.num_nets(), 150u);
  EXPECT_TRUE(nl.is_graph());
}

TEST(RandomGolaTest, RejectsDegenerateCellCount) {
  util::Rng rng{1};
  EXPECT_THROW(random_gola(GolaParams{1, 5}, rng), std::invalid_argument);
}

// Counts the id types cannot index fail up front, before any allocation
// or any net is drawn.
TEST(RandomGolaTest, RejectsCountsTheIdTypesCannotIndex) {
  util::Rng rng{1};
  constexpr std::size_t kHuge = std::numeric_limits<std::size_t>::max();
  for (const std::size_t cells : {kMaxCells + 1, kHuge}) {
    EXPECT_THROW(random_gola(GolaParams{cells, 5}, rng), std::invalid_argument);
    EXPECT_THROW(random_nola(NolaParams{cells, 5, 2, 6}, rng),
                 std::invalid_argument);
    EXPECT_THROW(random_graph(cells, 5, rng), std::invalid_argument);
  }
  for (const std::size_t nets : {kMaxNets + 1, kHuge}) {
    EXPECT_THROW(random_gola(GolaParams{15, nets}, rng), std::invalid_argument);
    EXPECT_THROW(random_nola(NolaParams{15, nets, 2, 6}, rng),
                 std::invalid_argument);
    EXPECT_THROW(random_graph(15, nets, rng), std::invalid_argument);
  }
}

TEST(RandomGolaTest, NoSelfLoops) {
  util::Rng rng{2};
  const Netlist nl = random_gola(GolaParams{5, 500}, rng);
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    const auto pins = nl.pins(n);
    ASSERT_EQ(pins.size(), 2u);
    EXPECT_NE(pins[0], pins[1]);
  }
}

TEST(RandomNolaTest, PinCountsWithinRange) {
  util::Rng rng{3};
  const NolaParams params{15, 150, 2, 6};
  const Netlist nl = random_nola(params, rng);
  EXPECT_EQ(nl.num_cells(), 15u);
  EXPECT_EQ(nl.num_nets(), 150u);
  bool saw_multi = false;
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    const auto size = nl.pins(n).size();
    ASSERT_GE(size, 2u);
    ASSERT_LE(size, 6u);
    saw_multi |= size > 2;
  }
  EXPECT_TRUE(saw_multi) << "150 draws from [2,6] should include a >2-pin net";
}

TEST(RandomNolaTest, RejectsBadPinRange) {
  util::Rng rng{4};
  EXPECT_THROW(random_nola(NolaParams{15, 10, 1, 4}, rng),
               std::invalid_argument);
  EXPECT_THROW(random_nola(NolaParams{15, 10, 5, 4}, rng),
               std::invalid_argument);
  EXPECT_THROW(random_nola(NolaParams{15, 10, 2, 16}, rng),
               std::invalid_argument);
}

TEST(RandomNolaTest, AllPinsDistinctWithinNet) {
  util::Rng rng{5};
  const Netlist nl = random_nola(NolaParams{8, 200, 2, 8}, rng);
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    const auto pins = nl.pins(n);
    for (std::size_t i = 1; i < pins.size(); ++i) {
      EXPECT_LT(pins[i - 1], pins[i]);  // sorted distinct
    }
  }
}

TEST(TestSetTest, IsDeterministicInMasterSeed) {
  const auto a = gola_test_set(5, GolaParams{15, 150}, 1985);
  const auto b = gola_test_set(5, GolaParams{15, 150}, 1985);
  ASSERT_EQ(a.size(), 5u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(to_string(a[i]), to_string(b[i])) << "instance " << i;
  }
}

TEST(TestSetTest, PrefixStableWhenCountGrows) {
  // Instance i must not depend on how many instances were requested.
  const auto small = gola_test_set(3, GolaParams{15, 150}, 7);
  const auto large = gola_test_set(10, GolaParams{15, 150}, 7);
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(to_string(small[i]), to_string(large[i]));
  }
}

TEST(TestSetTest, InstancesDiffer) {
  const auto set = gola_test_set(2, GolaParams{15, 150}, 11);
  EXPECT_NE(to_string(set[0]), to_string(set[1]));
}

TEST(TestSetTest, DifferentSeedsDifferentSets) {
  const auto a = gola_test_set(1, GolaParams{15, 150}, 1);
  const auto b = gola_test_set(1, GolaParams{15, 150}, 2);
  EXPECT_NE(to_string(a[0]), to_string(b[0]));
}

TEST(TestSetTest, NolaSetMatchesPaperShape) {
  const auto set = nola_test_set(30, NolaParams{}, 1985);
  ASSERT_EQ(set.size(), 30u);
  for (const auto& nl : set) {
    EXPECT_EQ(nl.num_cells(), 15u);
    EXPECT_EQ(nl.num_nets(), 150u);
  }
}

TEST(RandomGraphTest, ProducesGraph) {
  util::Rng rng{6};
  const Netlist nl = random_graph(40, 100, rng);
  EXPECT_EQ(nl.num_cells(), 40u);
  EXPECT_EQ(nl.num_nets(), 100u);
  EXPECT_TRUE(nl.is_graph());
}

}  // namespace
}  // namespace mcopt::netlist
