// Fuzz for speculative move evaluation, checked against full recounts.
//
// For each substrate (linear arrangement with both move kinds and both
// objectives, balanced partitioning, TSP with 2-opt and Or-opt) two twins
// built on the same start are driven through hundreds of random
// propose/accept/reject/descend steps on one RNG stream.  A speculating
// state cannot be copied, so the suite checks twins instead of copies:
//
//   * twin A accepts every proposal, then must report cost() == h(j) and
//     pass a from-scratch recount of its incremental state — so every
//     proposed cost is checked against a full recount, whatever the
//     script decides;
//   * twin B follows the script's accept/reject choice.  Between propose
//     and accept/reject it must still report h(i); after a reject it must
//     hold h(i) and the snapshot it had, and A is restored from that
//     snapshot so the twins go on together.
//
// Descents run on both twins with a budget that may run out mid-scan or
// with enough budget to finish; a finished linear-arrangement descent
// must end at a local optimum.
//
// The suite runs under ASan/UBSan in CI, so any journal bookkeeping error
// that scribbles outside the reserved scratch also surfaces here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <tuple>

#include "core/problem.hpp"
#include "linarr/problem.hpp"
#include "netlist/generator.hpp"
#include "partition/problem.hpp"
#include "support/linarr_shapes.hpp"
#include "tsp/instance.hpp"
#include "tsp/problem.hpp"
#include "tsp/tour.hpp"
#include "util/budget.hpp"
#include "util/rng.hpp"

namespace mcopt {
namespace {

struct FuzzChecks {
  /// Recomputes the problem's incremental state from scratch and asserts
  /// it matches (checks nothing pending).
  std::function<void(core::Problem&)> recount;
  /// Postcondition of a descend() that finished inside its budget; empty
  /// when the substrate has none to check.
  std::function<void(core::Problem&)> after_descent;
  /// Allowed |A - B| cost difference: 0 for integer costs.  A restored
  /// TSP twin recomputes its tour length exactly while the other keeps
  /// the incremental sum, so their lengths may differ by rounding.
  double cost_tolerance = 0.0;
};

/// Drives twins `a` and `b` (built identically) through `steps` random
/// operations as described in the file comment.
void run_twin_fuzz(core::Problem& a, core::Problem& b, std::uint64_t seed,
                   int steps, const FuzzChecks& checks) {
  const double tol = checks.cost_tolerance;
  ASSERT_EQ(a.cost(), b.cost());
  ASSERT_NO_FATAL_FAILURE(checks.recount(b));
  util::Rng rng{seed};
  util::Rng script{seed ^ 0x9e3779b97f4a7c15ULL};
  for (int step = 0; step < steps; ++step) {
    const std::uint64_t op = script.next() % 16;
    if (op < 14) {
      const double h_i = b.cost();
      const core::Snapshot before = b.snapshot();
      util::Rng a_rng = rng;
      const double h_a = a.propose(a_rng);
      const double h_j = b.propose(rng);
      ASSERT_EQ(a_rng.next(), util::Rng{rng}.next())
          << "step " << step << ": twins consumed different RNG draws";
      ASSERT_NEAR(h_a, h_j, tol) << "step " << step;
      ASSERT_EQ(b.cost(), h_i) << "step " << step << ": cost() moved";
      a.accept();
      ASSERT_EQ(a.cost(), h_a) << "step " << step;
      ASSERT_NO_FATAL_FAILURE(checks.recount(a)) << "step " << step;
      const bool take = h_j < h_i || script.next_double() < 0.25;
      if (take) {
        b.accept();
        ASSERT_EQ(b.cost(), h_j) << "step " << step;
      } else {
        b.reject();
        ASSERT_EQ(b.cost(), h_i) << "step " << step;
        ASSERT_EQ(b.snapshot(), before) << "step " << step;
        a.restore(before);
      }
    } else {
      // Op 14 may run out of budget mid-scan; op 15 has enough to finish.
      const std::uint64_t limit = op == 14 ? 150 : std::uint64_t{1} << 24;
      util::WorkBudget a_budget{limit};
      util::WorkBudget b_budget{limit};
      a.descend(a_budget);
      b.descend(b_budget);
      ASSERT_EQ(a_budget.spent(), b_budget.spent()) << "step " << step;
      ASSERT_TRUE(op == 14 || !b_budget.exhausted()) << "step " << step;
      ASSERT_NO_FATAL_FAILURE(checks.recount(b)) << "step " << step;
      if (!b_budget.exhausted() && checks.after_descent) {
        ASSERT_NO_FATAL_FAILURE(checks.after_descent(b)) << "step " << step;
      }
    }
    ASSERT_NEAR(a.cost(), b.cost(), tol) << "step " << step;
    ASSERT_EQ(a.snapshot(), b.snapshot()) << "step " << step;
  }
  ASSERT_NO_FATAL_FAILURE(checks.recount(a));
  ASSERT_NO_FATAL_FAILURE(checks.recount(b));
}

FuzzChecks linarr_checks() {
  return {[](core::Problem& p) {
            p.check_invariants();
            ASSERT_TRUE(
                dynamic_cast<linarr::LinArrProblem&>(p).state().verify());
          },
          [](core::Problem& p) {
            ASSERT_TRUE(
                dynamic_cast<linarr::LinArrProblem&>(p).is_local_optimum());
          }};
}

void fuzz_linarr(const netlist::Netlist& nl, const linarr::Arrangement& start,
                 linarr::MoveKind move_kind, linarr::Objective objective,
                 std::uint64_t seed) {
  linarr::LinArrProblem a{nl, start, move_kind, objective};
  linarr::LinArrProblem b{nl, start, move_kind, objective};
  ASSERT_NO_FATAL_FAILURE(run_twin_fuzz(a, b, seed, 600, linarr_checks()))
      << "move kind " << static_cast<int>(move_kind) << ", objective "
      << static_cast<int>(objective);
}

void fuzz_tsp(tsp::TspMoveKind move_kind, std::uint64_t gen_seed,
              std::uint64_t seed) {
  util::Rng gen{gen_seed};
  const auto instance = tsp::TspInstance::random_euclidean(16, gen);
  const auto start = tsp::identity_order(16);
  tsp::TspProblem a{instance, start, move_kind};
  tsp::TspProblem b{instance, start, move_kind};
  FuzzChecks checks;
  checks.recount = [&instance](core::Problem& p) {
    p.check_invariants();
    const auto& t = dynamic_cast<tsp::TspProblem&>(p);
    ASSERT_TRUE(tsp::is_valid_order(t.order(), instance.size()));
    const double exact = tsp::tour_length(instance, t.order());
    ASSERT_NEAR(t.cost(), exact, 1e-9 * std::max(1.0, exact));
  };
  checks.cost_tolerance = 1e-9;
  run_twin_fuzz(a, b, seed, 600, checks);
}

class SpeculativeFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(SpeculativeFuzzTest, LinArrPairwiseInterchange) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  util::Rng gen{seed * 101 + 7};
  const auto nl = netlist::random_gola(netlist::GolaParams{12, 80}, gen);
  const auto start = linarr::Arrangement::random(12, gen);
  fuzz_linarr(nl, start, linarr::MoveKind::kPairwiseInterchange,
              linarr::Objective::kDensity, seed);
}

TEST_P(SpeculativeFuzzTest, LinArrSingleExchange) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  util::Rng gen{seed * 131 + 3};
  const auto nl = netlist::random_gola(netlist::GolaParams{12, 80}, gen);
  const auto start = linarr::Arrangement::random(12, gen);
  fuzz_linarr(nl, start, linarr::MoveKind::kSingleExchange,
              linarr::Objective::kDensity, seed);
}

TEST_P(SpeculativeFuzzTest, LinArrTotalSpanObjective) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  util::Rng gen{seed * 151 + 9};
  const auto nl = netlist::random_gola(netlist::GolaParams{12, 80}, gen);
  const auto start = linarr::Arrangement::random(12, gen);
  fuzz_linarr(nl, start, linarr::MoveKind::kPairwiseInterchange,
              linarr::Objective::kTotalSpan, seed);
}

TEST_P(SpeculativeFuzzTest, Partition) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  util::Rng gen{seed * 171 + 5};
  const auto nl = netlist::random_graph(16, 48, gen);
  const auto start = partition::PartitionState::random(nl, gen);
  partition::PartitionProblem a{start};
  partition::PartitionProblem b{start};
  FuzzChecks checks;
  checks.recount = [](core::Problem& p) {
    p.check_invariants();
    const auto& state =
        dynamic_cast<partition::PartitionProblem&>(p).state();
    ASSERT_TRUE(state.verify());
    ASSERT_TRUE(state.is_balanced());
  };
  run_twin_fuzz(a, b, seed, 600, checks);
}

TEST_P(SpeculativeFuzzTest, TspTwoOpt) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  fuzz_tsp(tsp::TspMoveKind::kTwoOpt, seed * 191 + 1, seed);
}

TEST_P(SpeculativeFuzzTest, TspOrOpt) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  fuzz_tsp(tsp::TspMoveKind::kOrOpt, seed * 211 + 13, seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpeculativeFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// The three linear-arrangement configs again, beyond 2-pin nets on 12
// cells: multi-pin NOLA nets, two-pin and three-pin nets on the same
// cells, heavily parallel two-pin nets, and the smallest arrangements
// (n = 2, 3); see tests/support/linarr_shapes.hpp.
class LinArrShapeFuzzTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(LinArrShapeFuzzTest, AllMoveKindsAndObjectives) {
  const auto& [shape, seed_param] = GetParam();
  const auto seed = static_cast<std::uint64_t>(seed_param);
  util::Rng gen{seed * 223 + 17};
  const netlist::Netlist nl = mcopt::testing::linarr_shape(shape, gen);
  const auto start = linarr::Arrangement::random(nl.num_cells(), gen);
  const std::tuple<linarr::MoveKind, linarr::Objective> configs[] = {
      {linarr::MoveKind::kPairwiseInterchange, linarr::Objective::kDensity},
      {linarr::MoveKind::kSingleExchange, linarr::Objective::kDensity},
      {linarr::MoveKind::kPairwiseInterchange,
       linarr::Objective::kTotalSpan},
  };
  for (const auto& [move_kind, objective] : configs) {
    fuzz_linarr(nl, start, move_kind, objective, seed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LinArrShapeFuzzTest,
    ::testing::Combine(::testing::Values("nola12", "gola2", "nola3",
                                         "mixed12", "parallel8", "gola3"),
                       ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace mcopt
