#include "linarr/density.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/parallel.hpp"
#include "linarr/problem.hpp"
#include "netlist/generator.hpp"
#include "support/linarr_shapes.hpp"

namespace mcopt::linarr {
namespace {

using netlist::GolaParams;
using netlist::Netlist;
using netlist::NolaParams;

Netlist path_graph(std::size_t n) {
  Netlist::Builder b{n};
  for (std::size_t i = 0; i + 1 < n; ++i) {
    b.add_net({static_cast<CellId>(i), static_cast<CellId>(i + 1)});
  }
  return b.build();
}

TEST(DensityTest, PathGraphIdentityHasDensityOne) {
  const Netlist nl = path_graph(5);
  DensityState state{nl, Arrangement{5}};
  EXPECT_EQ(state.density(), 1);
  for (std::size_t b = 0; b < 4; ++b) EXPECT_EQ(state.cut_at(b), 1);
  EXPECT_EQ(state.total_span(), 4);
}

TEST(DensityTest, ReversedPathStillDensityOne) {
  const Netlist nl = path_graph(5);
  DensityState state{nl, Arrangement::from_order({4, 3, 2, 1, 0})};
  EXPECT_EQ(state.density(), 1);
}

TEST(DensityTest, ScrambledPathRaisesDensity) {
  // 0-1-2-3-4 path arranged 0 2 4 1 3: every edge spans >= 2 boundaries.
  const Netlist nl = path_graph(5);
  DensityState state{nl, Arrangement::from_order({0, 2, 4, 1, 3})};
  EXPECT_GT(state.density(), 1);
  EXPECT_TRUE(state.verify());
}

TEST(DensityTest, StarNetCrossesItsWholeSpan) {
  // One 4-pin net over cells {0,1,2,3} placed at positions 0..3 of 5.
  Netlist::Builder b{5};
  b.add_net({0, 1, 2, 3});
  const Netlist nl = b.build();
  DensityState state{nl, Arrangement{5}};
  EXPECT_EQ(state.cut_at(0), 1);
  EXPECT_EQ(state.cut_at(1), 1);
  EXPECT_EQ(state.cut_at(2), 1);
  EXPECT_EQ(state.cut_at(3), 0);  // net does not reach position 4
  EXPECT_EQ(state.density(), 1);
  EXPECT_EQ(state.total_span(), 3);
}

TEST(DensityTest, MultiPinNetSpanIsExtremaNotPairs) {
  // Net {0, 2} plus net {0, 1, 2}: both span positions 0..2 under identity.
  Netlist::Builder b{3};
  b.add_net({0, 2});
  b.add_net({0, 1, 2});
  DensityState state{b.build(), Arrangement{3}};
  EXPECT_EQ(state.cut_at(0), 2);
  EXPECT_EQ(state.cut_at(1), 2);
  EXPECT_EQ(state.density(), 2);
}

TEST(DensityTest, ParallelNetsStack) {
  Netlist::Builder b{2};
  b.add_net({0, 1});
  b.add_net({0, 1});
  b.add_net({0, 1});
  DensityState state{b.build(), Arrangement{2}};
  EXPECT_EQ(state.density(), 3);
}

TEST(DensityTest, RejectsSizeMismatch) {
  const Netlist nl = path_graph(4);
  EXPECT_THROW((DensityState{nl, Arrangement{5}}), std::invalid_argument);
}

TEST(DensityTest, SwapUpdatesDensity) {
  const Netlist nl = path_graph(4);  // identity density 1
  DensityState state{nl, Arrangement{4}};
  state.apply_swap(0, 3);  // 3 1 2 0: edges 0-1 and 2-3 now span widely
  EXPECT_TRUE(state.verify());
  EXPECT_GT(state.density(), 1);
  state.apply_swap(0, 3);  // undo
  EXPECT_EQ(state.density(), 1);
  EXPECT_TRUE(state.verify());
}

TEST(DensityTest, SwapSamePositionIsNoop) {
  const Netlist nl = path_graph(4);
  DensityState state{nl, Arrangement{4}};
  state.apply_swap(2, 2);
  EXPECT_EQ(state.density(), 1);
  EXPECT_TRUE(state.verify());
}

TEST(DensityTest, MoveUpdatesDensity) {
  const Netlist nl = path_graph(6);
  DensityState state{nl, Arrangement{6}};
  state.apply_move(0, 5);
  EXPECT_TRUE(state.verify());
  state.apply_move(5, 0);
  EXPECT_EQ(state.density(), 1);
  EXPECT_TRUE(state.verify());
}

TEST(DensityTest, ResetRecounts) {
  const Netlist nl = path_graph(5);
  DensityState state{nl, Arrangement::from_order({0, 2, 4, 1, 3})};
  const int scrambled = state.density();
  state.reset(Arrangement{5});
  EXPECT_EQ(state.density(), 1);
  EXPECT_LT(state.density(), scrambled);
  EXPECT_TRUE(state.verify());
}

TEST(DensityTest, MaxCutTightensAfterDecrease) {
  // Force the lazily-tracked max to shrink: create a high cut then remove it.
  Netlist::Builder b{4};
  b.add_net({0, 3});
  b.add_net({0, 3});
  b.add_net({1, 2});
  const Netlist nl = b.build();
  DensityState state{nl, Arrangement{4}};  // cuts: 2 3 2 -> density 3
  EXPECT_EQ(state.density(), 3);
  // Swap 1 and 3: order 0 3 2 1.  The two {0,3} nets now span one boundary.
  state.apply_swap(1, 3);
  EXPECT_TRUE(state.verify());
  EXPECT_EQ(state.density(), 2);
}

TEST(DensityOfTest, OneShotMatchesState) {
  const Netlist nl = path_graph(7);
  const Arrangement arr = Arrangement::from_order({3, 0, 6, 2, 5, 1, 4});
  DensityState state{nl, arr};
  EXPECT_EQ(density_of(nl, arr), state.density());
}

// The recount builds no DensityState, so the state's own counts are an
// independent check of it on random GOLA and NOLA instances.
TEST(DensityOfTest, RecountMatchesStateOnRandomInstances) {
  util::Rng rng{79};
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 2 + rng.next_below(30);
    const std::size_t max_pins = std::min<std::size_t>(n, 6);
    const Netlist nl =
        trial % 2 == 0 ? random_gola(GolaParams{n, 5 * n}, rng)
                       : random_nola(NolaParams{n, 5 * n, 2, max_pins}, rng);
    const Arrangement arr = Arrangement::random(n, rng);
    const DensityState state{nl, arr};
    const std::vector<int> counts = crossing_counts(nl, arr);
    ASSERT_EQ(counts.size(), n - 1);
    for (std::size_t b = 0; b + 1 < n; ++b) {
      ASSERT_EQ(counts[b], state.cut_at(b)) << "trial " << trial;
    }
    ASSERT_EQ(density_of(nl, arr), state.density()) << "trial " << trial;
  }
}

TEST(DensityOfTest, RejectsSizeMismatch) {
  const Netlist nl = path_graph(4);
  EXPECT_THROW((void)density_of(nl, Arrangement{5}), std::invalid_argument);
}

// Which swap kernel each test shape takes under the rule in density.hpp:
// the column kernel, or the per-net one (every shape without a wide net
// takes neither).  Listing both sides, and crossover23 exactly at the
// rule, means a change to the rule that moves a shape fails here instead
// of silently leaving one kernel untested.
bool takes_columns(const std::string& shape) {
  for (const char* name : {"nola12", "mixed12", "nola3", "crossover23"}) {
    if (shape == name) return true;
  }
  return false;
}

// Likewise for the two-pin path into the lane pass: the weight rows or
// the neighbour lists, with matrix18 exactly at the rule and lists18 one
// pair under.
bool takes_matrix(const std::string& shape) {
  for (const char* name : {"mixed12", "gola2", "gola3", "nola3", "matrix18"}) {
    if (shape == name) return true;
  }
  return false;
}

// The paths `nl` takes under the rules in density.hpp, as
// {uses_columns(), uses_matrix()}.
std::pair<bool, bool> paths_of(const Netlist& nl) {
  const DensityState state{nl, Arrangement{nl.num_cells()}};
  return {state.uses_columns(), state.uses_matrix()};
}

// Property sweep: after arbitrary interleavings of swaps and moves, applied
// or speculated and then committed or discarded, the incremental state
// must equal a from-scratch recount.
void expect_churn_matches_recount(const Netlist& nl, util::Rng& rng) {
  const std::size_t n = nl.num_cells();
  DensityState state{nl, Arrangement::random(n, rng)};
  ASSERT_TRUE(state.verify());
  for (int step = 0; step < 300; ++step) {
    const auto [a, b] = rng.next_distinct_pair(n);
    const bool swap = rng.next_bool(0.5);
    switch (rng.next_below(3)) {
      case 0:
        if (swap) {
          state.apply_swap(a, b);
        } else {
          state.apply_move(a, b);
        }
        break;
      default:
        if (swap) {
          state.speculate_swap(a, b);
        } else {
          state.speculate_move(a, b);
        }
        if (rng.next_bool(0.5)) {
          state.commit_speculation();
        } else {
          state.discard_speculation();
        }
        break;
    }
    if (step % 10 == 0) {
      ASSERT_TRUE(state.verify()) << "step " << step;
    }
    ASSERT_GE(state.density(), 0);
    ASSERT_LE(state.density(), static_cast<int>(nl.num_nets()));
  }
  EXPECT_TRUE(state.verify());
}

// Parameterized over (instance seed, use multi-pin nets).  The two-pin
// case runs GOLA 12/60 (weight rows); the multi-pin case runs NOLA 12/60
// (column kernel), the shapes one pin under (per-net kernel) and exactly
// at the kernel rule's crossover, and the two sides of the two-pin rule.
class DensityChurnTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(DensityChurnTest, IncrementalAlwaysMatchesRecount) {
  const auto [seed, multi_pin] = GetParam();
  util::Rng rng{static_cast<std::uint64_t>(seed)};
  if (!multi_pin) {
    const Netlist gola = random_gola(GolaParams{12, 60}, rng);
    ASSERT_TRUE((DensityState{gola, Arrangement{12}}.uses_matrix()));
    expect_churn_matches_recount(gola, rng);
    return;
  }
  const Netlist nola = random_nola(NolaParams{12, 60, 2, 6}, rng);
  ASSERT_TRUE((DensityState{nola, Arrangement{12}}.uses_columns()));
  expect_churn_matches_recount(nola, rng);
  for (const std::string shape :
       {"below23", "crossover23", "lists18", "matrix18"}) {
    SCOPED_TRACE(shape);
    const Netlist nl = mcopt::testing::linarr_shape(shape, rng);
    ASSERT_EQ(paths_of(nl),
              std::make_pair(takes_columns(shape), takes_matrix(shape)));
    expect_churn_matches_recount(nl, rng);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DensityChurnTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                                            ::testing::Bool()));

// Density lower bound: the first boundary's cut equals the degree of the
// leftmost cell for two-pin nets, so density >= min degree.
TEST(DensityBoundTest, DensityAtLeastMinDegreeOnGraphs) {
  util::Rng rng{77};
  const Netlist nl = random_gola(GolaParams{10, 45}, rng);
  std::size_t min_degree = nl.degree(0);
  for (CellId c = 1; c < nl.num_cells(); ++c) {
    min_degree = std::min(min_degree, nl.degree(c));
  }
  for (int trial = 0; trial < 20; ++trial) {
    const Arrangement arr = Arrangement::random(10, rng);
    EXPECT_GE(density_of(nl, arr), static_cast<int>(min_degree));
  }
}

// Speculation unit contract: speculate_* records the exact density/span of
// the candidate without touching the committed state; commit makes the
// candidate current; discard is a perfect no-op.  The apply path is the
// oracle.
void expect_swap_speculation_matches_oracle(const Netlist& nl,
                                            util::Rng& rng) {
  const std::size_t n = nl.num_cells();
  DensityState spec{nl, Arrangement::random(n, rng)};
  DensityState oracle{spec};
  for (int trial = 0; trial < 200; ++trial) {
    const auto p = static_cast<std::size_t>(rng.next() % n);
    auto q = static_cast<std::size_t>(rng.next() % (n - 1));
    if (q >= p) ++q;
    const int before_density = spec.density();
    const long long before_span = spec.total_span();
    spec.speculate_swap(p, q);
    oracle.apply_swap(p, q);
    ASSERT_EQ(spec.speculative_density(), oracle.density());
    ASSERT_EQ(spec.speculative_total_span(), oracle.total_span());
    // Committed state is untouched while speculating.
    ASSERT_EQ(spec.density(), before_density);
    ASSERT_EQ(spec.total_span(), before_span);
    if (trial % 2 == 0) {
      spec.commit_speculation();
      ASSERT_EQ(spec.density(), oracle.density());
      ASSERT_EQ(spec.arrangement().order(), oracle.arrangement().order());
    } else {
      spec.discard_speculation();
      oracle.apply_swap(p, q);  // self-inverse: undo the oracle
      ASSERT_EQ(spec.density(), before_density);
      ASSERT_EQ(spec.total_span(), before_span);
    }
    if (trial % 25 == 0) {
      ASSERT_TRUE(spec.verify()) << "trial " << trial;
    }
  }
  EXPECT_TRUE(spec.verify());
}

void expect_move_speculation_matches_oracle(const Netlist& nl,
                                            util::Rng& rng) {
  const std::size_t n = nl.num_cells();
  DensityState spec{nl, Arrangement::random(n, rng)};
  DensityState oracle{spec};
  for (int trial = 0; trial < 200; ++trial) {
    const auto from = static_cast<std::size_t>(rng.next() % n);
    auto to = static_cast<std::size_t>(rng.next() % (n - 1));
    if (to >= from) ++to;
    const int before_density = spec.density();
    const long long before_span = spec.total_span();
    spec.speculate_move(from, to);
    oracle.apply_move(from, to);
    ASSERT_EQ(spec.speculative_density(), oracle.density());
    ASSERT_EQ(spec.speculative_total_span(), oracle.total_span());
    ASSERT_EQ(spec.density(), before_density);
    ASSERT_EQ(spec.total_span(), before_span);
    if (trial % 2 == 0) {
      spec.commit_speculation();
      ASSERT_EQ(spec.density(), oracle.density());
      ASSERT_EQ(spec.arrangement().order(), oracle.arrangement().order());
    } else {
      spec.discard_speculation();
      oracle.apply_move(to, from);  // inverse move undoes the oracle
      ASSERT_EQ(spec.density(), before_density);
      ASSERT_EQ(spec.total_span(), before_span);
    }
    if (trial % 25 == 0) {
      ASSERT_TRUE(spec.verify()) << "trial " << trial;
    }
  }
  EXPECT_TRUE(spec.verify());
}

TEST(DensitySpeculationTest, SwapSpeculationMatchesApplyOracle) {
  util::Rng rng{83};
  const Netlist nl = random_gola(GolaParams{12, 80}, rng);
  expect_swap_speculation_matches_oracle(nl, rng);
}

TEST(DensitySpeculationTest, MoveSpeculationMatchesApplyOracle) {
  util::Rng rng{87};
  const Netlist nl = random_gola(GolaParams{12, 80}, rng);
  expect_move_speculation_matches_oracle(nl, rng);
}

// The same oracle checks beyond 2-pin nets on 12 cells: multi-pin NOLA
// nets, two-pin and three-pin nets on the same cells, heavily parallel
// two-pin nets, the smallest arrangements, where every window touches an
// end of the row, NOLA rows whose wide nets keep one to three words of
// position bits, and the two sides of the swap-kernel rule and of the
// two-pin rule (see tests/support/linarr_shapes.hpp).  Each asserts the
// paths it takes.
class DensitySpeculationShapeTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(DensitySpeculationShapeTest, SwapSpeculationMatchesApplyOracle) {
  util::Rng rng{91};
  const Netlist nl = mcopt::testing::linarr_shape(GetParam(), rng);
  ASSERT_EQ(paths_of(nl), std::make_pair(takes_columns(GetParam()),
                                         takes_matrix(GetParam())));
  expect_swap_speculation_matches_oracle(nl, rng);
}

TEST_P(DensitySpeculationShapeTest, MoveSpeculationMatchesApplyOracle) {
  util::Rng rng{93};
  const Netlist nl = mcopt::testing::linarr_shape(GetParam(), rng);
  ASSERT_EQ(paths_of(nl), std::make_pair(takes_columns(GetParam()),
                                         takes_matrix(GetParam())));
  expect_move_speculation_matches_oracle(nl, rng);
}

INSTANTIATE_TEST_SUITE_P(Shapes, DensitySpeculationShapeTest,
                         ::testing::Values("nola12", "gola2", "nola3",
                                           "mixed12", "parallel8", "gola3",
                                           "nola63", "nola64", "nola65",
                                           "nola130", "below23",
                                           "crossover23", "lists18",
                                           "matrix18"),
                         [](const auto& info) { return info.param; });

// Every ordered swap (or single exchange) (p, q) on `nl` from the
// identity arrangement: the speculated density and span equal the apply
// path's, and both a commit and a discard leave a state that verify()
// accepts with the oracle's cuts.
template <bool kMove>
void expect_every_pair_matches_oracle(const Netlist& nl) {
  const std::size_t n = nl.num_cells();
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t q = 0; q < n; ++q) {
      if (p == q) continue;
      SCOPED_TRACE(::testing::Message()
                   << (kMove ? "move(" : "swap(") << p << ", " << q << ")");
      DensityState spec{nl, Arrangement{n}};
      DensityState oracle{nl, Arrangement{n}};
      const auto speculate = [&] {
        if constexpr (kMove) {
          spec.speculate_move(p, q);
        } else {
          spec.speculate_swap(p, q);
        }
      };
      if constexpr (kMove) {
        oracle.apply_move(p, q);
      } else {
        oracle.apply_swap(p, q);
      }
      ASSERT_TRUE(oracle.verify());
      speculate();
      ASSERT_EQ(spec.speculative_density(), oracle.density());
      ASSERT_EQ(spec.speculative_total_span(), oracle.total_span());
      spec.discard_speculation();
      ASSERT_TRUE(spec.verify());
      speculate();
      spec.commit_speculation();
      ASSERT_TRUE(spec.verify());
      ASSERT_EQ(spec.density(), oracle.density());
      for (std::size_t b = 0; b + 1 < n; ++b) {
        ASSERT_EQ(spec.cut_at(b), oracle.cut_at(b)) << "boundary " << b;
      }
    }
  }
}

// Hand-built nets for each case of the swap kernel.  Cells start at their
// own positions; the names say what swap(2, 5) sees, where the pin of cell
// 2 moves right and the pin of cell 5 moves left.  The leading end of a
// net is the end its moving pin heads toward, the trailing end the one it
// leaves.  Every ordered pair then puts each net's cells at every position
// of the window, with q = p + 1 and with p > q.  Two-pin nets take the
// neighbour-list path and wide nets the position-bits path; the last
// cases put both kinds, and parallel two-pin nets, on the swapped cells.
// The single-exchange test runs every ordered move over the same nets.
struct HandBuiltCase {
  const char* name;
  std::vector<std::vector<CellId>> nets;
  int copies = 1;  // each net added this many times
};

const std::vector<HandBuiltCase>& hand_built_cases() {
  static const std::vector<HandBuiltCase> cases{
      {"pin inside the span", {{0, 2, 7}}},
      {"2-pin, pin at the leading end", {{0, 2}}},
      {"3-pin, pin at the leading end", {{0, 1, 2}}},
      {"2-pin, trailing pin, other pin inside the window", {{2, 3}}},
      {"2-pin, trailing pin, other pin past the window", {{2, 7}}},
      {"3-pin, trailing pin, rest inside the window", {{2, 3, 4}}},
      {"3-pin, trailing pin, rest across the window end", {{2, 4, 7}}},
      {"3-pin, trailing pin, rest past the window", {{2, 6, 7}}},
      {"left pin inside the span", {{1, 5, 7}}},
      {"2-pin, left pin at the leading end", {{5, 6}}},
      {"3-pin, left pin at the trailing end", {{0, 3, 5}}},
      {"net on both cells", {{2, 5}}},
      {"net on both cells and beyond", {{0, 2, 5, 7}}},
      {"2-pin net on both cells, 40 copies", {{2, 5}}, 40},
      {"parallel 2-pin nets off both cells", {{2, 3}, {2, 7}, {0, 5}, {5, 6}},
       40},
      {"2-pin and wide nets sharing both cells",
       {{2, 5}, {2, 5, 7}, {0, 2}, {0, 1, 2}, {2, 3, 4}, {5, 6}, {3, 5, 6},
        {1, 5}}},
      {"mixed nets with parallel copies on both cells",
       {{2, 5}, {2, 4}, {0, 2, 5}, {4, 5}, {1, 2, 6}},
       3},
  };
  return cases;
}

Netlist hand_built_netlist(const std::vector<HandBuiltCase>& cases) {
  Netlist::Builder b{8};
  for (const HandBuiltCase& c : cases) {
    for (int copy = 0; copy < c.copies; ++copy) {
      for (const auto& pins : c.nets) b.add_net(pins);
    }
  }
  return b.build();
}

template <bool kMove>
void expect_hand_built_cases_match_oracle() {
  for (const HandBuiltCase& c : hand_built_cases()) {
    SCOPED_TRACE(c.name);
    expect_every_pair_matches_oracle<kMove>(hand_built_netlist({c}));
  }
  SCOPED_TRACE("all nets together");
  expect_every_pair_matches_oracle<kMove>(
      hand_built_netlist(hand_built_cases()));
}

TEST(DensitySpeculationTest, HandBuiltSwapCasesMatchApplyOracle) {
  expect_hand_built_cases_match_oracle<false>();
}

TEST(DensitySpeculationTest, HandBuiltMoveCasesMatchApplyOracle) {
  expect_hand_built_cases_match_oracle<true>();
}

// Word edges.  On 130 cells each wide net keeps three words of position
// bits.  From the identity arrangement, every ordered swap and single
// exchange moves pins across the 63/64 and 127/128 word edges, onto and
// off the first and last bit of a word, and through a net on every cell.
Netlist word_edge_netlist() {
  constexpr std::size_t kCells = 130;
  Netlist::Builder b{kCells};
  b.add_net({62, 63, 64});
  b.add_net({63, 64, 65});
  b.add_net({0, 63, 64, 129});
  b.add_net({64, 127, 128});
  b.add_net({1, 63, 128});
  b.add_net({63, 64});
  b.add_net({0, 129});
  std::vector<CellId> every(kCells);
  for (std::size_t c = 0; c < kCells; ++c) every[c] = static_cast<CellId>(c);
  b.add_net(every);
  return b.build();
}

TEST(DensitySpeculationTest, WordEdgeSwapsMatchApplyOracle) {
  expect_every_pair_matches_oracle<false>(word_edge_netlist());
}

TEST(DensitySpeculationTest, WordEdgeMovesMatchApplyOracle) {
  expect_every_pair_matches_oracle<true>(word_edge_netlist());
}

// Degenerate instances, each through every ordered swap and single
// exchange against the apply oracle, with verify() after each; every
// ordered pair includes the swaps at positions 0 and n-1 and those of two
// cells a net joins.  For the column kernel: the smallest wide net (n = 3,
// one 3-pin net), wide nets only, one net on every cell (its crossing
// count never changes), and 64 and 65 wide nets, one and two words of net
// bits per column.  For the weight rows: n = 2 and n = 3 with parallel
// two-pin nets, and heavily parallel nets on 6 cells, one pair 60 times.
Netlist degenerate_netlist(const std::string& name) {
  util::Rng rng{97};
  if (name == "two_cells_parallel") {
    Netlist::Builder b{2};
    for (int copy = 0; copy < 5; ++copy) b.add_net({0, 1});
    return b.build();
  }
  if (name == "three_cells_pairs") {
    Netlist::Builder b{3};
    for (int copy = 0; copy < 3; ++copy) b.add_net({0, 1});
    b.add_net({1, 2});
    b.add_net({0, 2});
    b.add_net({0, 2});
    return b.build();
  }
  if (name == "heavy_parallel") {
    Netlist::Builder b{6};
    for (int copy = 0; copy < 60; ++copy) b.add_net({0, 5});
    for (int copy = 0; copy < 25; ++copy) b.add_net({1, 2});
    for (int copy = 0; copy < 40; ++copy) b.add_net({2, 4});
    b.add_net({3, 4});
    b.add_net({0, 3});
    b.add_net({1, 5});
    return b.build();
  }
  if (name == "three_cells_one_wide_net") {
    Netlist::Builder b{3};
    b.add_net({0, 1, 2});
    return b.build();
  }
  if (name == "wide_nets_only") {
    return random_nola(NolaParams{12, 40, 3, 6}, rng);
  }
  if (name == "net_on_every_cell") {
    constexpr std::size_t kCells = 10;
    Netlist::Builder b{kCells};
    std::vector<CellId> every(kCells);
    for (std::size_t c = 0; c < kCells; ++c) every[c] = static_cast<CellId>(c);
    b.add_net(every);
    // At most 8 distinct pairs: the two-pin rule keeps the lists.
    for (int net = 0; net < 8; ++net) {
      const auto [u, v] = rng.next_distinct_pair(kCells);
      b.add_net({static_cast<CellId>(u), static_cast<CellId>(v)});
    }
    return b.build();
  }
  if (name == "wide64") return random_nola(NolaParams{16, 64, 3, 6}, rng);
  if (name == "wide65") return random_nola(NolaParams{16, 65, 3, 6}, rng);
  throw std::invalid_argument("degenerate_netlist: unknown " + name);
}

// The weight-row instances take no column kernel (they have no wide net);
// the column-kernel instances feed the lane pass from the neighbour
// lists.
bool degenerate_takes_matrix(const std::string& name) {
  return name == "two_cells_parallel" || name == "three_cells_pairs" ||
         name == "heavy_parallel";
}

class DensityDegenerateTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DensityDegenerateTest, SwapsMatchApplyOracle) {
  const Netlist nl = degenerate_netlist(GetParam());
  const bool matrix = degenerate_takes_matrix(GetParam());
  ASSERT_EQ(paths_of(nl), std::make_pair(!matrix, matrix));
  expect_every_pair_matches_oracle<false>(nl);
}

TEST_P(DensityDegenerateTest, MovesMatchApplyOracle) {
  const Netlist nl = degenerate_netlist(GetParam());
  const bool matrix = degenerate_takes_matrix(GetParam());
  ASSERT_EQ(paths_of(nl), std::make_pair(!matrix, matrix));
  expect_every_pair_matches_oracle<true>(nl);
}

// The applied moves and a reset keep the rows exact too: verify()
// rebuilds them from the two-pin nets after each.
TEST_P(DensityDegenerateTest, ApplyAndResetKeepTheStateExact) {
  const Netlist nl = degenerate_netlist(GetParam());
  const std::size_t n = nl.num_cells();
  util::Rng rng{101};
  DensityState state{nl, Arrangement::random(n, rng)};
  for (int step = 0; step < 60; ++step) {
    const auto [a, b] = rng.next_distinct_pair(n);
    if (step % 2 == 0) {
      state.apply_swap(a, b);
    } else {
      state.apply_move(a, b);
    }
    ASSERT_TRUE(state.verify()) << "step " << step;
    if (step % 20 == 19) {
      state.reset(Arrangement::random(n, rng));
      ASSERT_TRUE(state.verify()) << "reset at step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Instances, DensityDegenerateTest,
                         ::testing::Values("three_cells_one_wide_net",
                                           "wide_nets_only",
                                           "net_on_every_cell", "wide64",
                                           "wide65", "two_cells_parallel",
                                           "three_cells_pairs",
                                           "heavy_parallel"),
                         [](const auto& info) { return info.param; });

// Clone regression: every per-move scratch buffer is sized to its full
// reservation, so a copy or an assignment carries it at full size and a
// cloned worker's first hot-loop move does not allocate.  Each copy must
// also carry the two-pin weight rows on GOLA 15/150, the rows and the
// column kernel's state and scratch on NOLA 15/150, and the column kernel
// beside the neighbour lists on nola12; verify() holds each copy's rows
// and columns to a rebuild.
void expect_copies_keep_scratch(const Netlist& nl, util::Rng& rng) {
  const std::size_t n = nl.num_cells();
  DensityState state{nl, Arrangement::random(n, rng)};
  ASSERT_TRUE(state.scratch_reserved());

  DensityState copied{state};
  EXPECT_TRUE(copied.scratch_reserved());
  EXPECT_EQ(copied.uses_columns(), state.uses_columns());
  EXPECT_EQ(copied.uses_lanes(), state.uses_lanes());
  EXPECT_EQ(copied.uses_matrix(), state.uses_matrix());
  EXPECT_TRUE(copied.verify());

  DensityState assigned{nl, Arrangement::random(n, rng)};
  assigned = state;
  EXPECT_TRUE(assigned.scratch_reserved());
  EXPECT_EQ(assigned.density(), state.density());
  EXPECT_EQ(assigned.uses_columns(), state.uses_columns());
  EXPECT_EQ(assigned.uses_lanes(), state.uses_lanes());
  EXPECT_EQ(assigned.uses_matrix(), state.uses_matrix());
  EXPECT_TRUE(assigned.verify());

  // The copy must also be a correct speculation substrate, not just a
  // reserved one.
  // verify() also requires every scratch difference to be back to zero, so
  // a committed and a discarded speculation must both leave none behind.
  copied.speculate_swap(2, 9);
  const int candidate = copied.speculative_density();
  copied.commit_speculation();
  EXPECT_EQ(copied.density(), candidate);
  EXPECT_TRUE(copied.verify());
  EXPECT_TRUE(copied.scratch_reserved());

  assigned.speculate_swap(11, 3);
  assigned.discard_speculation();
  EXPECT_TRUE(assigned.verify());
  EXPECT_TRUE(assigned.scratch_reserved());
}

TEST(DensityCopyTest, CopyAndAssignKeepScratchReservedAndExact) {
  util::Rng rng{81};
  const Netlist gola = random_gola(GolaParams{15, 150}, rng);
  const Netlist nola = random_nola(NolaParams{15, 150, 2, 6}, rng);
  const Netlist lists = mcopt::testing::linarr_shape("nola12", rng);
  ASSERT_EQ(paths_of(gola), std::make_pair(false, true));
  ASSERT_EQ(paths_of(nola), std::make_pair(true, true));
  ASSERT_EQ(paths_of(lists), std::make_pair(true, false));
  expect_copies_keep_scratch(gola, rng);
  expect_copies_keep_scratch(nola, rng);
  expect_copies_keep_scratch(lists, rng);
}

// A copy or an assignment taken while a speculation is pending carries it:
// committed on the copy, it gives the order, cuts, density and span the
// original commits to, on every kernel and layout pairing.
TEST(DensityCopyTest, CopyTakenMidSpeculationCommitsLikeTheOriginal) {
  util::Rng rng{83};
  const Netlist gola = random_gola(GolaParams{15, 150}, rng);
  const Netlist nola = random_nola(NolaParams{15, 150, 2, 6}, rng);
  const Netlist lists = mcopt::testing::linarr_shape("nola12", rng);
  const Netlist per_net = random_nola(NolaParams{60, 600, 2, 6}, rng);
  ASSERT_EQ(paths_of(gola), std::make_pair(false, true));
  ASSERT_EQ(paths_of(nola), std::make_pair(true, true));
  ASSERT_EQ(paths_of(lists), std::make_pair(true, false));
  ASSERT_EQ(paths_of(per_net), std::make_pair(false, false));
  for (const Netlist* nl : {&gola, &nola, &lists, &per_net}) {
    const std::size_t n = nl->num_cells();
    DensityState state{*nl, Arrangement::random(n, rng)};
    for (int round = 0; round < 40; ++round) {
      SCOPED_TRACE(::testing::Message() << n << " cells, round " << round);
      const auto [a, b] = rng.next_distinct_pair(n);
      if (round % 2 == 0) {
        state.speculate_swap(a, b);
      } else {
        state.speculate_move(a, b);
      }
      DensityState copied{state};
      DensityState assigned{*nl, Arrangement::random(n, rng)};
      assigned = state;
      state.commit_speculation();
      for (DensityState* copy : {&copied, &assigned}) {
        ASSERT_TRUE(copy->speculating());
        copy->commit_speculation();
        ASSERT_TRUE(copy->verify());
        ASSERT_EQ(copy->arrangement().order(), state.arrangement().order());
        ASSERT_EQ(copy->density(), state.density());
        ASSERT_EQ(copy->total_span(), state.total_span());
        for (std::size_t k = 0; k + 1 < n; ++k) {
          ASSERT_EQ(copy->cut_at(k), state.cut_at(k)) << "boundary " << k;
        }
      }
      ASSERT_TRUE(state.verify());
    }
  }
}

// The netlist builds its NetIndex once and every reader shares it: two
// problems on one netlist, a clone() of one, and a copy of the netlist
// taken before the index existed and used first.  Each state still
// verify()s after committed moves.
TEST(DensityNetIndexTest, ProblemsClonesAndNetlistCopiesShareOneIndex) {
  util::Rng rng{87};
  const Netlist gola = random_gola(GolaParams{15, 150}, rng);
  const Netlist nola = random_nola(NolaParams{15, 150, 2, 6}, rng);
  const Netlist lists = mcopt::testing::linarr_shape("nola12", rng);
  for (const Netlist* nl : {&gola, &nola, &lists}) {
    const Netlist copy = *nl;  // before the first net_index() call
    const std::size_t n = nl->num_cells();
    LinArrProblem on_copy{copy, Arrangement::random(n, rng)};
    LinArrProblem first{*nl, Arrangement::random(n, rng)};
    LinArrProblem second{*nl, Arrangement::random(n, rng)};
    const std::unique_ptr<core::Problem> clone = first.clone();
    const auto& cloned = dynamic_cast<const LinArrProblem&>(*clone);
    const netlist::NetIndex* index = &nl->net_index();
    EXPECT_EQ(&copy.net_index(), index);
    for (LinArrProblem* problem : {&on_copy, &first, &second}) {
      EXPECT_EQ(&problem->state().net_index(), index);
      for (int step = 0; step < 50; ++step) {
        (void)problem->propose(rng);
        problem->accept();
      }
      EXPECT_TRUE(problem->state().verify());
    }
    EXPECT_EQ(&cloned.state().net_index(), index);
    EXPECT_TRUE(cloned.state().verify());
  }
}

// A default-constructed netlist has no cells: its index is empty, and a
// state or problem on it is refused (no arrangement has zero cells, so
// the size check throws) rather than read out of bounds.
TEST(DensityNetIndexTest, DefaultConstructedNetlistIsRejected) {
  const Netlist empty;
  const netlist::NetIndex& index = empty.net_index();
  EXPECT_EQ(index.pair_offsets, std::vector<std::size_t>{0});
  EXPECT_EQ(index.wide_offsets, std::vector<std::size_t>{0});
  EXPECT_TRUE(index.pairs.empty());
  EXPECT_TRUE(index.pair_degree.empty());
  EXPECT_TRUE(index.wide_net.empty());
  EXPECT_TRUE(index.cell_wide.empty());
  EXPECT_THROW((DensityState{empty, Arrangement{1}}), std::invalid_argument);
  EXPECT_THROW((LinArrProblem{empty, Arrangement{2}}), std::invalid_argument);
}

// Eight threads build problems on one fresh netlist at once, so its
// index's first use races: it must be built once, every thread must read
// the same one, and every state must verify().  Named for the TSan job's
// `Parallel` filter, which runs it under the race detector.
TEST(ParallelNetIndexFirstUse, EightThreadsBuildProblemsOnOneFreshNetlist) {
  constexpr unsigned kThreads = 8;
  util::Rng rng{89};
  for (int round = 0; round < 6; ++round) {
    const Netlist nl =
        round % 2 == 0 ? random_gola(GolaParams{15, 150}, rng)
                       : random_nola(NolaParams{15, 150, 2, 6}, rng);
    const std::uint64_t seed = rng.next();
    // Each job writes only its own slots, so the vectors need no lock.
    std::vector<const netlist::NetIndex*> seen(kThreads, nullptr);
    std::vector<char> verified(kThreads, 0);
    core::parallel_for(kThreads, kThreads, [&](std::size_t job, unsigned) {
      util::Rng local{seed + job};
      LinArrProblem problem{nl, Arrangement::random(nl.num_cells(), local)};
      for (int step = 0; step < 200; ++step) {
        (void)problem.propose(local);
        if (local.next_bool(0.4)) {
          problem.accept();
        } else {
          problem.reject();
        }
      }
      seen[job] = &problem.state().net_index();
      verified[job] = problem.state().verify() ? 1 : 0;
    });
    for (unsigned job = 0; job < kThreads; ++job) {
      EXPECT_EQ(seen[job], &nl.net_index()) << "round " << round;
      EXPECT_EQ(verified[job], 1) << "round " << round << ", job " << job;
    }
  }
}

// The two-pin weight rows follow the arrangement: every commit, applied
// move and reset permutes or rebuilds their lanes, and a copy carries
// them.  verify() rebuilds them from the two-pin nets through the
// arrangement after every step of a mix of committed and discarded
// speculations, applied moves, resets, copies and assignments.
TEST(DensityMatrixTest, RowsFollowMovesResetsAndCopies) {
  util::Rng rng{103};
  const Netlist gola = random_gola(GolaParams{15, 150}, rng);
  const Netlist nola = random_nola(NolaParams{15, 150, 2, 6}, rng);
  const Netlist at_rule = mcopt::testing::linarr_shape("matrix18", rng);
  for (const Netlist* nl : {&gola, &nola, &at_rule}) {
    const std::size_t n = nl->num_cells();
    DensityState state{*nl, Arrangement::random(n, rng)};
    ASSERT_TRUE(state.uses_matrix());
    for (int step = 0; step < 400; ++step) {
      const auto [a, b] = rng.next_distinct_pair(n);
      switch (rng.next_below(8)) {
        case 0:
          state.apply_swap(a, b);
          break;
        case 1:
          state.apply_move(a, b);
          break;
        case 2:
          state.reset(Arrangement::random(n, rng));
          break;
        case 3:
          state = DensityState{state};
          break;
        case 4: {
          DensityState other{*nl, Arrangement::random(n, rng)};
          other = state;
          state = other;
          break;
        }
        default:
          if (rng.next_bool(0.5)) {
            state.speculate_swap(a, b);
          } else {
            state.speculate_move(a, b);
          }
          if (rng.next_bool(0.5)) {
            state.commit_speculation();
          } else {
            state.discard_speculation();
          }
          break;
      }
      ASSERT_TRUE(state.verify()) << "step " << step;
    }
  }
}

// The lane pass over every lane count around the vector width, with the
// weight rows and without: on n cells, dense two-pin nets (the rows) or
// sparse ones (the lists: fewer than n^2/12 distinct pairs, each one to
// three times, none at all for n <= 3), alone or with wide nets beside
// them (the column kernel up to n = 9, the per-net kernel from 15).
// Every window (lo, hi), lo = 0 and hi = n - 1 included, is scored as
// swap(lo, hi) or swap(hi, lo), alternately, then as a single exchange
// from one end to the other, each against the apply oracle and then
// committed or discarded: a commit adds every lane's delta, so the state
// must equal the oracle cut for cut, inside the window and out.  Resets,
// copies and assignments are interleaved, and verify() holds the rows,
// the cuts (their padding lanes too) and the scratch to a recount.
Netlist lane_instance(std::size_t n, bool rows, bool wide, util::Rng& rng) {
  Netlist::Builder b{n};
  if (rows) {
    const Netlist gola = random_gola(GolaParams{n, 8 * n}, rng);
    for (netlist::NetId net = 0; net < gola.num_nets(); ++net) {
      b.add_net(gola.pins(net));
    }
  } else {
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    while (12 * (pairs.size() + 1) < n * n) {
      auto pair = rng.next_distinct_pair(n);
      if (pair.first > pair.second) std::swap(pair.first, pair.second);
      if (std::find(pairs.begin(), pairs.end(), pair) != pairs.end()) {
        continue;
      }
      pairs.push_back(pair);
      const std::uint64_t copies = 1 + rng.next_below(3);
      for (std::uint64_t i = 0; i < copies; ++i) {
        b.add_net({static_cast<CellId>(pair.first),
                   static_cast<CellId>(pair.second)});
      }
    }
  }
  if (wide) {
    const Netlist nola = random_nola(
        NolaParams{n, n / 4 + 1, 3, std::min<std::size_t>(n, 5)}, rng);
    for (netlist::NetId net = 0; net < nola.num_nets(); ++net) {
      b.add_net(nola.pins(net));
    }
  }
  return b.build();
}

void expect_every_window_matches_oracle(const Netlist& nl, util::Rng& rng) {
  const std::size_t n = nl.num_cells();
  DensityState state{nl, Arrangement::random(n, rng)};
  DensityState oracle{state};
  const auto expect_matches = [&] {
    ASSERT_EQ(state.arrangement().order(), oracle.arrangement().order());
    ASSERT_EQ(state.density(), oracle.density());
    ASSERT_EQ(state.total_span(), oracle.total_span());
    for (std::size_t b = 0; b + 1 < n; ++b) {
      ASSERT_EQ(state.cut_at(b), oracle.cut_at(b)) << "boundary " << b;
    }
  };
  // One move of either kind, scored against the oracle, then committed
  // or discarded (the oracle undoing it).
  const auto score = [&](bool swap, std::size_t p, std::size_t q) {
    if (swap) {
      state.speculate_swap(p, q);
      oracle.apply_swap(p, q);
    } else {
      state.speculate_move(p, q);
      oracle.apply_move(p, q);
    }
    ASSERT_EQ(state.speculative_density(), oracle.density());
    ASSERT_EQ(state.speculative_total_span(), oracle.total_span());
    if (rng.next_bool(0.5)) {
      state.commit_speculation();
    } else {
      state.discard_speculation();
      if (swap) {
        oracle.apply_swap(p, q);
      } else {
        oracle.apply_move(q, p);
      }
    }
  };
  std::size_t step = 0;
  for (std::size_t lo = 0; lo < n; ++lo) {
    for (std::size_t hi = lo + 1; hi < n; ++hi, ++step) {
      SCOPED_TRACE(::testing::Message() << "window [" << lo << ", " << hi
                                        << "], step " << step);
      const bool flip = step % 2 == 1;
      const std::size_t p = flip ? hi : lo;
      const std::size_t q = flip ? lo : hi;
      score(true, p, q);
      expect_matches();
      score(false, q, p);
      expect_matches();
      const auto [a, b] = rng.next_distinct_pair(n);
      switch (step % 16) {
        case 3:
          score(false, a, b);
          break;
        case 7: {
          const Arrangement fresh = Arrangement::random(n, rng);
          state.reset(fresh);
          oracle.reset(fresh);
          break;
        }
        case 11:
          state = DensityState{state};
          break;
        case 15: {
          DensityState other{nl, Arrangement::random(n, rng)};
          other = state;
          state = other;
          break;
        }
        default:
          break;
      }
      expect_matches();
      if (step % 8 == 0) {
        ASSERT_TRUE(state.verify());
      }
    }
  }
  EXPECT_TRUE(state.verify());
  EXPECT_TRUE(state.scratch_reserved());
}

class DensityLaneTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DensityLaneTest, EveryWindowMatchesApplyOracle) {
  const std::size_t n = GetParam();
  util::Rng rng{109 + n};
  for (const bool rows : {true, false}) {
    for (const bool wide : {false, true}) {
      if (wide && n < 3) continue;
      SCOPED_TRACE(::testing::Message()
                   << (rows ? "rows" : "lists")
                   << (wide ? ", with wide nets" : ""));
      const Netlist nl = lane_instance(n, rows, wide, rng);
      ASSERT_TRUE((DensityState{nl, Arrangement{n}}.uses_lanes()));
      ASSERT_EQ(paths_of(nl), std::make_pair(wide && n <= 9, rows));
      expect_every_window_matches_oracle(nl, rng);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(LaneCounts, DensityLaneTest,
                         ::testing::Values(2, 3, 7, 8, 9, 15, 16, 17, 63, 64,
                                           65),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

// The lane bound on nets, on 3 cells: 32767 nets take the weight rows and
// 32768 the lists and the scalar pass.  Every 64th net joins cells 0 and 1 and the rest join
// 0 and 2, so the weight between 0 and 2 (2 x 32255) wraps in its int16
// lane, and with cell 0 at an end every net crosses its boundary: the
// cut reaches 32767, the largest value a lane holds.  Every swap and
// single exchange is scored against the apply oracle from every
// arrangement, then committed.
TEST(DensityNetBoundTest, PicksThePathAndStaysExact) {
  for (const std::size_t nets : {std::size_t{32767}, std::size_t{32768}}) {
    SCOPED_TRACE(::testing::Message() << nets << " nets");
    Netlist::Builder b{3};
    for (std::size_t net = 0; net < nets; ++net) {
      if (net % 64 == 1) {
        b.add_net({0, 1});
      } else {
        b.add_net({0, 2});
      }
    }
    const Netlist nl = b.build();
    DensityState state{nl, Arrangement::from_order({0, 1, 2})};
    DensityState oracle{state};
    ASSERT_EQ(state.uses_matrix(), nets <= 32767);
    ASSERT_EQ(state.density(), static_cast<int>(nets));
    ASSERT_TRUE(state.verify());
    for (int round = 0; round < 12; ++round) {
      for (std::size_t p = 0; p < 3; ++p) {
        for (std::size_t q = 0; q < 3; ++q) {
          if (p == q) continue;
          const bool move = round % 2 == 1;
          if (move) {
            state.speculate_move(p, q);
            oracle.apply_move(p, q);
          } else {
            state.speculate_swap(p, q);
            oracle.apply_swap(p, q);
          }
          ASSERT_EQ(state.speculative_density(), oracle.density());
          ASSERT_EQ(state.speculative_total_span(), oracle.total_span());
          state.commit_speculation();
          ASSERT_EQ(state.density(), oracle.density());
          ASSERT_EQ(state.cut_at(0), oracle.cut_at(0));
          ASSERT_EQ(state.cut_at(1), oracle.cut_at(1));
        }
      }
      ASSERT_TRUE(state.verify()) << "round " << round;
    }
    // From 1 0 2, putting cell 0 first puts every net across boundary 0.
    state.reset(Arrangement::from_order({1, 0, 2}));
    ASSERT_EQ(state.density(), static_cast<int>(nets) - 512);
    state.speculate_swap(0, 1);
    EXPECT_EQ(state.speculative_density(), static_cast<int>(nets));
    state.commit_speculation();
    EXPECT_EQ(state.cut_at(0), static_cast<int>(nets));
    EXPECT_TRUE(state.verify());
  }
}

// The lane bound on cells: n = 32767 takes the lane pass, 32768 and 32800
// the scalar pass.  A handful of nets, far too few for the rows, start
// with most pins near position 32767 and at the end of the row, where
// six parallel nets keep a tall cut.  Each step swaps or single-exchanges
// the cell of one of those pins with a position from 32759 on, so every
// window ends near or past position 32767 (past every int16 lane index
// on 32800 cells), scores it against the apply oracle, then commits or
// discards it; verify() recounts the state every eighth step.
TEST(DensityCellBoundTest, PicksThePathAndStaysExact) {
  constexpr std::size_t kLane = 32767;
  for (const std::size_t n : {kLane, kLane + 1, kLane + 33}) {
    SCOPED_TRACE(::testing::Message() << n << " cells");
    util::Rng rng{113 + n};
    const auto cell = [](std::size_t c) { return static_cast<CellId>(c); };
    const auto tail = [&](std::size_t from) {
      return from + rng.next_below(n - from);
    };
    Netlist::Builder b{n};
    b.add_net({0, cell(n - 1)});
    for (int copy = 0; copy < 6; ++copy) b.add_net({cell(n - 2), cell(n - 1)});
    b.add_net({cell(kLane - 1), cell(n - 3)});
    b.add_net({1, cell(n / 2), cell(n - 4)});
    b.add_net({cell(kLane - 3), cell(kLane - 2), cell(n - 5), cell(n - 6)});
    for (int net = 0; net < 16; ++net) {
      b.add_net({cell(rng.next_below(kLane - 40)), cell(tail(kLane - 40))});
    }
    const Netlist nl = b.build();
    std::vector<CellId> pinned;
    for (std::size_t c = 0; c < n; ++c) {
      if (nl.degree(cell(c)) > 0) pinned.push_back(cell(c));
    }
    DensityState state{nl, Arrangement{n}};
    DensityState oracle{state};
    ASSERT_EQ(state.uses_lanes(), n <= kLane);
    ASSERT_FALSE(state.uses_matrix());
    ASSERT_TRUE(state.verify());
    for (int step = 0; step < 200; ++step) {
      SCOPED_TRACE(::testing::Message() << "step " << step);
      const std::size_t a = state.arrangement().position_of(
          pinned[rng.next_below(pinned.size())]);
      std::size_t c = tail(kLane - 8);
      if (c == a) c = a == n - 1 ? 0 : n - 1;
      const bool move = step % 2 == 1;
      const std::size_t from = step % 4 < 2 ? a : c;
      const std::size_t to = from == a ? c : a;
      if (move) {
        state.speculate_move(from, to);
        oracle.apply_move(from, to);
      } else {
        state.speculate_swap(from, to);
        oracle.apply_swap(from, to);
      }
      ASSERT_EQ(state.speculative_density(), oracle.density());
      ASSERT_EQ(state.speculative_total_span(), oracle.total_span());
      if (rng.next_bool(0.5)) {
        state.commit_speculation();
      } else {
        state.discard_speculation();
        if (move) {
          oracle.apply_move(to, from);
        } else {
          oracle.apply_swap(from, to);
        }
      }
      ASSERT_EQ(state.density(), oracle.density());
      ASSERT_EQ(state.total_span(), oracle.total_span());
      if (step % 8 == 7) {
        ASSERT_TRUE(state.verify());
        for (std::size_t boundary = 0; boundary + 1 < n; ++boundary) {
          ASSERT_EQ(state.cut_at(boundary), oracle.cut_at(boundary))
              << "boundary " << boundary;
        }
      }
    }
    EXPECT_TRUE(state.verify());
    EXPECT_TRUE(state.scratch_reserved());
  }
}

// On a column instance, which stores no position bits, swap commits (two
// columns traded, the speculated window copied) interleave with every
// other operation: a single exchange's speculation, the apply path, a
// reset, a copy and an assignment.  Each round commits a few swaps, then
// runs one of those operations, held to an oracle that only ever applies
// moves, and to verify().
TEST(DensityColumnTest, SwapCommitsThenEveryOtherOperation) {
  util::Rng rng{107};
  const Netlist nola = random_nola(NolaParams{15, 150, 2, 6}, rng);
  const Netlist lists = mcopt::testing::linarr_shape("nola12", rng);
  for (const Netlist* nl : {&nola, &lists}) {
    const std::size_t n = nl->num_cells();
    DensityState state{*nl, Arrangement::random(n, rng)};
    DensityState oracle{state};
    ASSERT_TRUE(state.uses_columns());
    const auto expect_matches = [&](const DensityState& s) {
      ASSERT_TRUE(s.verify());
      ASSERT_EQ(s.arrangement().order(), oracle.arrangement().order());
      ASSERT_EQ(s.density(), oracle.density());
      ASSERT_EQ(s.total_span(), oracle.total_span());
      for (std::size_t b = 0; b + 1 < n; ++b) {
        ASSERT_EQ(s.cut_at(b), oracle.cut_at(b)) << "boundary " << b;
      }
    };
    // Scores a single exchange on `s` against the oracle, then commits it
    // on both or discards it.
    const auto expect_move_matches = [&](DensityState& s) {
      const auto [from, to] = rng.next_distinct_pair(n);
      s.speculate_move(from, to);
      oracle.apply_move(from, to);
      ASSERT_EQ(s.speculative_density(), oracle.density());
      ASSERT_EQ(s.speculative_total_span(), oracle.total_span());
      if (rng.next_bool(0.5)) {
        s.commit_speculation();
      } else {
        s.discard_speculation();
        oracle.apply_move(to, from);
      }
    };
    for (int round = 0; round < 120; ++round) {
      SCOPED_TRACE(::testing::Message() << "round " << round);
      const std::uint64_t swaps = 1 + rng.next_below(4);
      for (std::uint64_t i = 0; i < swaps; ++i) {
        const auto [p, q] = rng.next_distinct_pair(n);
        state.speculate_swap(p, q);
        oracle.apply_swap(p, q);
        ASSERT_EQ(state.speculative_density(), oracle.density());
        state.commit_speculation();
      }
      const auto [a, b] = rng.next_distinct_pair(n);
      switch (round % 6) {
        case 0:
          expect_move_matches(state);
          break;
        case 1:
          state.apply_move(a, b);
          oracle.apply_move(a, b);
          break;
        case 2:
          state.apply_swap(a, b);
          oracle.apply_swap(a, b);
          break;
        case 3: {
          const Arrangement fresh = Arrangement::random(n, rng);
          state.reset(fresh);
          oracle.reset(fresh);
          break;
        }
        case 4: {
          DensityState copied{state};
          expect_matches(copied);
          expect_move_matches(copied);
          expect_matches(copied);
          state = copied;
          break;
        }
        default: {
          DensityState assigned{*nl, Arrangement::random(n, rng)};
          assigned = state;
          expect_matches(assigned);
          expect_move_matches(assigned);
          expect_matches(assigned);
          state = assigned;
          break;
        }
      }
      expect_matches(state);
    }
  }
}

}  // namespace
}  // namespace mcopt::linarr
