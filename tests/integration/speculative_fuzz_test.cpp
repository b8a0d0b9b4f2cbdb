// Differential fuzz for the speculative evaluation path.
//
// For each substrate (linear arrangement with both move kinds, balanced
// partitioning, TSP) a speculative-path problem and an apply-undo twin are
// driven through thousands of random propose/accept/reject/descend
// sequences with identical RNG streams.  The apply-undo path is the
// original, obviously-correct implementation kept verbatim as the oracle:
// at every step both paths must return bit-identical proposal costs,
// committed costs, and snapshots, and the incremental state must agree
// with a from-scratch rebuild (state().verify() / check_invariants()).
//
// The suite runs under ASan/UBSan in CI, so any journal bookkeeping error
// that scribbles outside the reserved scratch also surfaces here.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <tuple>

#include "core/problem.hpp"
#include "linarr/problem.hpp"
#include "netlist/generator.hpp"
#include "partition/problem.hpp"
#include "tsp/problem.hpp"
#include "util/budget.hpp"
#include "util/rng.hpp"

namespace mcopt {
namespace {

/// Drives `spec` and `legacy` through `steps` random operations with
/// identical per-problem RNG streams, asserting lockstep equality after
/// every operation.  `deep_verify` recomputes the incremental state from
/// scratch (or checks invariants) for one problem.
void run_differential_fuzz(core::Problem& spec, core::Problem& legacy,
                           std::uint64_t seed, int steps,
                           const std::function<void(core::Problem&)>&
                               deep_verify) {
  ASSERT_EQ(spec.cost(), legacy.cost());
  util::Rng spec_rng{seed};
  util::Rng legacy_rng{seed};
  util::Rng script{seed ^ 0x9e3779b97f4a7c15ULL};
  for (int step = 0; step < steps; ++step) {
    const std::uint64_t op = script.next() % 16;
    if (op < 12) {
      // Propose on both, then apply the same accept/reject decision.
      const double h_spec = spec.propose(spec_rng);
      const double h_legacy = legacy.propose(legacy_rng);
      ASSERT_EQ(h_spec, h_legacy) << "step " << step;
      const bool take =
          h_spec < spec.cost() || script.next_double() < 0.25;
      if (take) {
        spec.accept();
        legacy.accept();
      } else {
        spec.reject();
        legacy.reject();
      }
    } else if (op < 14) {
      // Descend with a small budget; both paths must consume identical
      // budget and land on the identical local state.
      util::WorkBudget spec_budget{150};
      util::WorkBudget legacy_budget{150};
      spec.descend(spec_budget);
      legacy.descend(legacy_budget);
      ASSERT_EQ(spec_budget.spent(), legacy_budget.spent())
          << "step " << step;
    } else if (op == 14) {
      ASSERT_EQ(spec.snapshot(), legacy.snapshot()) << "step " << step;
    } else {
      deep_verify(spec);
      deep_verify(legacy);
    }
    ASSERT_EQ(spec.cost(), legacy.cost()) << "step " << step;
  }
  ASSERT_EQ(spec.snapshot(), legacy.snapshot());
  deep_verify(spec);
  deep_verify(legacy);
}

class SpeculativeFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(SpeculativeFuzzTest, LinArrPairwiseInterchange) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  util::Rng gen{seed * 101 + 7};
  const auto nl =
      netlist::random_gola(netlist::GolaParams{12, 80}, gen);
  const auto start = linarr::Arrangement::random(12, gen);
  linarr::LinArrProblem spec{nl, start,
                             linarr::MoveKind::kPairwiseInterchange,
                             linarr::Objective::kDensity,
                             core::EvalPath::kSpeculative};
  linarr::LinArrProblem legacy{nl, start,
                               linarr::MoveKind::kPairwiseInterchange,
                               linarr::Objective::kDensity,
                               core::EvalPath::kApplyUndo};
  run_differential_fuzz(spec, legacy, seed, 600, [](core::Problem& p) {
    ASSERT_TRUE(dynamic_cast<linarr::LinArrProblem&>(p).state().verify());
  });
}

TEST_P(SpeculativeFuzzTest, LinArrSingleExchange) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  util::Rng gen{seed * 131 + 3};
  const auto nl =
      netlist::random_gola(netlist::GolaParams{12, 80}, gen);
  const auto start = linarr::Arrangement::random(12, gen);
  linarr::LinArrProblem spec{nl, start, linarr::MoveKind::kSingleExchange,
                             linarr::Objective::kDensity,
                             core::EvalPath::kSpeculative};
  linarr::LinArrProblem legacy{nl, start, linarr::MoveKind::kSingleExchange,
                               linarr::Objective::kDensity,
                               core::EvalPath::kApplyUndo};
  run_differential_fuzz(spec, legacy, seed, 600, [](core::Problem& p) {
    ASSERT_TRUE(dynamic_cast<linarr::LinArrProblem&>(p).state().verify());
  });
}

TEST_P(SpeculativeFuzzTest, LinArrTotalSpanObjective) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  util::Rng gen{seed * 151 + 9};
  const auto nl =
      netlist::random_gola(netlist::GolaParams{12, 80}, gen);
  const auto start = linarr::Arrangement::random(12, gen);
  linarr::LinArrProblem spec{nl, start,
                             linarr::MoveKind::kPairwiseInterchange,
                             linarr::Objective::kTotalSpan,
                             core::EvalPath::kSpeculative};
  linarr::LinArrProblem legacy{nl, start,
                               linarr::MoveKind::kPairwiseInterchange,
                               linarr::Objective::kTotalSpan,
                               core::EvalPath::kApplyUndo};
  run_differential_fuzz(spec, legacy, seed, 600, [](core::Problem& p) {
    ASSERT_TRUE(dynamic_cast<linarr::LinArrProblem&>(p).state().verify());
  });
}

TEST_P(SpeculativeFuzzTest, Partition) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  util::Rng gen{seed * 171 + 5};
  const auto nl = netlist::random_graph(16, 48, gen);
  const auto start = partition::PartitionState::random(nl, gen);
  partition::PartitionProblem spec{start, core::EvalPath::kSpeculative};
  partition::PartitionProblem legacy{start, core::EvalPath::kApplyUndo};
  run_differential_fuzz(spec, legacy, seed, 600, [](core::Problem& p) {
    ASSERT_TRUE(
        dynamic_cast<partition::PartitionProblem&>(p).state().verify());
  });
}

TEST_P(SpeculativeFuzzTest, TspTwoOpt) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  util::Rng gen{seed * 191 + 1};
  const auto instance = tsp::TspInstance::random_euclidean(16, gen);
  const auto start = tsp::identity_order(16);
  tsp::TspProblem spec{instance, start, tsp::TspMoveKind::kTwoOpt,
                       core::EvalPath::kSpeculative};
  tsp::TspProblem legacy{instance, start, tsp::TspMoveKind::kTwoOpt,
                         core::EvalPath::kApplyUndo};
  run_differential_fuzz(spec, legacy, seed, 600,
                        [](core::Problem& p) { p.check_invariants(); });
}

TEST_P(SpeculativeFuzzTest, TspOrOpt) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  util::Rng gen{seed * 211 + 13};
  const auto instance = tsp::TspInstance::random_euclidean(16, gen);
  const auto start = tsp::identity_order(16);
  tsp::TspProblem spec{instance, start, tsp::TspMoveKind::kOrOpt,
                       core::EvalPath::kSpeculative};
  tsp::TspProblem legacy{instance, start, tsp::TspMoveKind::kOrOpt,
                         core::EvalPath::kApplyUndo};
  run_differential_fuzz(spec, legacy, seed, 600,
                        [](core::Problem& p) { p.check_invariants(); });
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpeculativeFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// The three linear-arrangement configs again, beyond 2-pin nets on 12
// cells: multi-pin NOLA nets, and the smallest arrangements (n = 2, 3).
class LinArrShapeFuzzTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(LinArrShapeFuzzTest, AllMoveKindsAndObjectives) {
  const auto& [shape, seed_param] = GetParam();
  const auto seed = static_cast<std::uint64_t>(seed_param);
  util::Rng gen{seed * 223 + 17};
  const netlist::Netlist nl =
      shape == "nola12"
          ? netlist::random_nola(netlist::NolaParams{12, 80, 2, 6}, gen)
      : shape == "gola2"
          ? netlist::random_gola(netlist::GolaParams{2, 6}, gen)
          : netlist::random_nola(netlist::NolaParams{3, 12, 2, 3}, gen);
  const auto start = linarr::Arrangement::random(nl.num_cells(), gen);
  const std::tuple<linarr::MoveKind, linarr::Objective> configs[] = {
      {linarr::MoveKind::kPairwiseInterchange, linarr::Objective::kDensity},
      {linarr::MoveKind::kSingleExchange, linarr::Objective::kDensity},
      {linarr::MoveKind::kPairwiseInterchange,
       linarr::Objective::kTotalSpan},
  };
  for (const auto& [move_kind, objective] : configs) {
    linarr::LinArrProblem spec{nl, start, move_kind, objective,
                               core::EvalPath::kSpeculative};
    linarr::LinArrProblem legacy{nl, start, move_kind, objective,
                                 core::EvalPath::kApplyUndo};
    run_differential_fuzz(spec, legacy, seed, 600, [](core::Problem& p) {
      ASSERT_TRUE(
          dynamic_cast<linarr::LinArrProblem&>(p).state().verify());
    });
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LinArrShapeFuzzTest,
    ::testing::Combine(::testing::Values("nola12", "gola2", "nola3"),
                       ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace mcopt
