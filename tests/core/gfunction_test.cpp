#include "core/gfunction.hpp"

#include <gtest/gtest.h>
#include <string>

#include <cmath>
#include <stdexcept>

namespace mcopt::core {
namespace {

constexpr double kE = 2.718281828459045;

TEST(GClassMetaTest, KMatchesPaper) {
  EXPECT_EQ(g_class_k(GClass::kMetropolis), 1u);
  EXPECT_EQ(g_class_k(GClass::kSixTempAnnealing), 6u);
  EXPECT_EQ(g_class_k(GClass::kGOne), 1u);
  EXPECT_EQ(g_class_k(GClass::kTwoLevel), 2u);
  EXPECT_EQ(g_class_k(GClass::kCubicDiff), 1u);
  EXPECT_EQ(g_class_k(GClass::kSixExponentialDiff), 6u);
  EXPECT_EQ(g_class_k(GClass::kCohoonSahni), 1u);
}

TEST(GClassMetaTest, ScaleFreeClasses) {
  EXPECT_FALSE(g_class_uses_scale(GClass::kGOne));
  EXPECT_FALSE(g_class_uses_scale(GClass::kTwoLevel));
  EXPECT_FALSE(g_class_uses_scale(GClass::kCohoonSahni));
  EXPECT_TRUE(g_class_uses_scale(GClass::kMetropolis));
  EXPECT_TRUE(g_class_uses_scale(GClass::kSixCubicDiff));
}

TEST(GClassMetaTest, Table41HasTwentyClassesInPaperOrder) {
  const auto classes = table41_classes();
  ASSERT_EQ(classes.size(), 20u);
  EXPECT_EQ(classes.front(), GClass::kMetropolis);
  EXPECT_EQ(classes.back(), GClass::kSixExponentialDiff);
}

TEST(GClassMetaTest, Table42HasThirteenClasses) {
  const auto classes = table42_classes();
  ASSERT_EQ(classes.size(), 13u);
  // §4.3.1: classes 5-12 are excluded.
  for (const GClass cls : classes) {
    const int id = static_cast<int>(cls);
    EXPECT_TRUE(id < 5 || id > 12) << g_class_name(cls);
  }
}

TEST(GClassMetaTest, NamesMatchPaperRows) {
  EXPECT_STREQ(g_class_name(GClass::kGOne), "g = 1");
  EXPECT_STREQ(g_class_name(GClass::kSixTempAnnealing),
               "Six Temperature Annealing");
  EXPECT_STREQ(g_class_name(GClass::kCubicDiff), "Cubic Diff");
  EXPECT_STREQ(g_class_name(GClass::kCohoonSahni), "[COHO83a]");
}

TEST(MakeGTest, RejectsBadParameters) {
  EXPECT_THROW(make_g(GClass::kMetropolis, {.scale = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(make_g(GClass::kMetropolis, {.scale = -1.0}),
               std::invalid_argument);
  EXPECT_THROW(
      make_g(GClass::kSixTempAnnealing, {.scale = 1.0, .ratio = 0.0}),
      std::invalid_argument);
  EXPECT_THROW(make_g(GClass::kCohoonSahni, {}), std::invalid_argument);
}

TEST(MakeGTest, ScaleFreeClassesIgnoreScale) {
  // g = 1 and two-level must be constructible with any (even absurd) scale.
  const auto g = make_g(GClass::kGOne, {.scale = -5.0});
  EXPECT_DOUBLE_EQ(g->probability(0, 10, 20), 1.0);
}

TEST(MetropolisGTest, MatchesClosedForm) {
  const auto g = make_g(GClass::kMetropolis, {.scale = 10.0});
  EXPECT_EQ(g->num_temperatures(), 1u);
  EXPECT_NEAR(g->probability(0, 50.0, 55.0), std::exp(-0.5), 1e-12);
  EXPECT_DOUBLE_EQ(g->probability(0, 50.0, 50.0), 1.0);  // sideways
}

TEST(SixTempAnnealingTest, ScheduleIsGeometric) {
  const auto g = make_g(GClass::kSixTempAnnealing, {.scale = 10.0});
  ASSERT_EQ(g->num_temperatures(), 6u);
  // Y_t = 10 * 0.9^t; acceptance of the same uphill move must fall with t.
  double prev = 1.1;
  for (unsigned t = 0; t < 6; ++t) {
    const double p = g->probability(t, 0.0, 5.0);
    EXPECT_NEAR(p, std::exp(-5.0 / (10.0 * std::pow(0.9, t))), 1e-12);
    EXPECT_LT(p, prev);
    prev = p;
  }
}

TEST(GOneTest, AlwaysOneAndFlagged) {
  const auto g = make_g(GClass::kGOne);
  EXPECT_DOUBLE_EQ(g->probability(0, 1.0, 100.0), 1.0);
  EXPECT_TRUE(g->always_accepts(0));
}

TEST(GFunctionTest, NoPaperClassNeverAccepts) {
  // Figure 1 skips the acceptance draw only on never_accepts() levels, so
  // a paper class reporting it would change that class's RNG stream.
  for (int c = 1; c <= 22; ++c) {
    const auto g = make_g(static_cast<GClass>(c), {.num_nets = 150});
    for (unsigned t = 0; t < g->num_temperatures(); ++t) {
      EXPECT_FALSE(g->never_accepts(t)) << "class " << c << " level " << t;
    }
  }
  EXPECT_FALSE(make_annealing_g({4.0, 2.0})->never_accepts(0));
}

TEST(TwoLevelTest, LevelValuesAndFlags) {
  const auto g = make_g(GClass::kTwoLevel);
  ASSERT_EQ(g->num_temperatures(), 2u);
  EXPECT_DOUBLE_EQ(g->probability(0, 1.0, 9.0), 1.0);
  EXPECT_DOUBLE_EQ(g->probability(1, 1.0, 9.0), 0.5);
  EXPECT_TRUE(g->always_accepts(0));
  EXPECT_FALSE(g->always_accepts(1));
}

TEST(CurrentCostGTest, LinearQuadraticCubicUseHOfI) {
  // Classes 5-7 depend on h(i), not on the difference (§3).
  const auto lin = make_g(GClass::kLinear, {.scale = 0.01});
  const auto quad = make_g(GClass::kQuadratic, {.scale = 1e-4});
  const auto cub = make_g(GClass::kCubic, {.scale = 1e-6});
  EXPECT_DOUBLE_EQ(lin->probability(0, 30.0, 1000.0), 0.3);
  EXPECT_DOUBLE_EQ(lin->probability(0, 30.0, 31.0), 0.3);  // h(j) irrelevant
  EXPECT_NEAR(quad->probability(0, 30.0, 31.0), 0.09, 1e-12);
  EXPECT_NEAR(cub->probability(0, 30.0, 31.0), 0.027, 1e-12);
}

TEST(CurrentCostGTest, ExponentialMatchesClosedForm) {
  const auto g = make_g(GClass::kExponential, {.scale = 100.0});
  const double expect = (std::exp(30.0 / 100.0) - 1.0) / (kE - 1.0);
  EXPECT_NEAR(g->probability(0, 30.0, 31.0), expect, 1e-12);
}

TEST(CurrentCostGTest, ClampsAtOne) {
  const auto lin = make_g(GClass::kLinear, {.scale = 1.0});
  EXPECT_DOUBLE_EQ(lin->probability(0, 50.0, 51.0), 1.0);
  const auto ex = make_g(GClass::kExponential, {.scale = 1.0});
  EXPECT_DOUBLE_EQ(ex->probability(0, 1000.0, 1001.0), 1.0);  // overflow-safe
}

TEST(DiffGTest, LinearQuadraticCubicUseDelta) {
  const auto lin = make_g(GClass::kLinearDiff, {.scale = 0.5});
  const auto quad = make_g(GClass::kQuadraticDiff, {.scale = 0.5});
  const auto cub = make_g(GClass::kCubicDiff, {.scale = 0.5});
  EXPECT_DOUBLE_EQ(lin->probability(0, 10.0, 12.0), 0.25);
  EXPECT_DOUBLE_EQ(quad->probability(0, 10.0, 12.0), 0.125);
  EXPECT_DOUBLE_EQ(cub->probability(0, 10.0, 12.0), 0.0625);
  // Larger uphill steps are less likely.
  EXPECT_GT(cub->probability(0, 10.0, 11.0), cub->probability(0, 10.0, 13.0));
}

TEST(DiffGTest, SidewaysMovesAlwaysAccepted) {
  // delta == 0 is the limit Y/0+ -> 1 for every difference class.
  for (const GClass cls :
       {GClass::kLinearDiff, GClass::kQuadraticDiff, GClass::kCubicDiff,
        GClass::kExponentialDiff}) {
    const auto g = make_g(cls, {.scale = 0.5});
    EXPECT_DOUBLE_EQ(g->probability(0, 10.0, 10.0), 1.0) << g_class_name(cls);
  }
}

TEST(DiffGTest, ExponentialDiffMatchesClosedForm) {
  const auto g = make_g(GClass::kExponentialDiff, {.scale = 0.5});
  const double expect = (std::exp(0.5 / 2.0) - 1.0) / (kE - 1.0);
  EXPECT_NEAR(g->probability(0, 10.0, 12.0), expect, 1e-12);
}

TEST(SixTempDiffTest, ColderLevelsAcceptLess) {
  const auto g = make_g(GClass::kSixCubicDiff, {.scale = 2.0});
  ASSERT_EQ(g->num_temperatures(), 6u);
  for (unsigned t = 1; t < 6; ++t) {
    EXPECT_LT(g->probability(t, 0.0, 2.0), g->probability(t - 1, 0.0, 2.0));
  }
}

TEST(CohoonTest, MatchesPublishedFormula) {
  // g(density) = min(density/(m+5), 0.9) with m = 150.
  const auto g = make_g(GClass::kCohoonSahni, {.num_nets = 150});
  EXPECT_NEAR(g->probability(0, 62.0, 63.0), 62.0 / 155.0, 1e-12);
  EXPECT_DOUBLE_EQ(g->probability(0, 1000.0, 1001.0), 0.9);  // cap
  EXPECT_FALSE(g->always_accepts(0));
}

TEST(ThresholdAcceptingTest, DeterministicStepFunction) {
  // Extension class 22: accept iff delta <= Y_t.
  const auto g = make_g(GClass::kThresholdAccepting, {.scale = 4.0});
  ASSERT_EQ(g->num_temperatures(), 6u);
  EXPECT_DOUBLE_EQ(g->probability(0, 10.0, 13.0), 1.0);  // delta 3 <= 4
  EXPECT_DOUBLE_EQ(g->probability(0, 10.0, 14.0), 1.0);  // delta 4 == Y
  EXPECT_DOUBLE_EQ(g->probability(0, 10.0, 15.0), 0.0);  // delta 5 > 4
  EXPECT_DOUBLE_EQ(g->probability(0, 10.0, 10.0), 1.0);  // sideways
}

TEST(ThresholdAcceptingTest, ColderLevelsAcceptSmallerSteps) {
  const auto g = make_g(GClass::kThresholdAccepting, {.scale = 4.0});
  // Y_t = 4 * 0.9^t; a delta-3 move passes until Y_t drops below 3.
  int accepted_levels = 0;
  for (unsigned t = 0; t < 6; ++t) {
    accepted_levels += g->probability(t, 0.0, 3.0) == 1.0;
  }
  EXPECT_EQ(accepted_levels, 3);  // 4.0, 3.6, 3.24 pass; 2.916... reject
  EXPECT_TRUE(g_class_uses_scale(GClass::kThresholdAccepting));
  EXPECT_STREQ(g_class_name(GClass::kThresholdAccepting),
               "Threshold Accepting");
}

TEST(ThresholdAcceptingTest, NotInThePaperTables) {
  // The extension must not leak into the reproduction row sets.
  for (const GClass cls : table41_classes()) {
    EXPECT_NE(cls, GClass::kThresholdAccepting);
  }
  for (const GClass cls : table42_classes()) {
    EXPECT_NE(cls, GClass::kThresholdAccepting);
  }
}

TEST(AnnealingGTest, ExplicitScheduleWorks) {
  const auto g = make_annealing_g({4.0, 2.0, 1.0});
  ASSERT_EQ(g->num_temperatures(), 3u);
  EXPECT_NEAR(g->probability(2, 0.0, 1.0), std::exp(-1.0), 1e-12);
  EXPECT_THROW(make_annealing_g({}), std::invalid_argument);
  EXPECT_THROW(make_annealing_g({1.0, 0.0}), std::invalid_argument);
}

// Property sweep: every class at every temperature must produce a
// probability in [0, 1] across a wide grid of costs and deltas.
class GRangeTest : public ::testing::TestWithParam<GClass> {};

TEST_P(GRangeTest, ProbabilityAlwaysInUnitInterval) {
  const GClass cls = GetParam();
  GParams params;
  params.num_nets = 150;
  for (const double scale : {1e-6, 1e-3, 0.5, 1.0, 10.0, 1e3}) {
    params.scale = scale;
    const auto g = make_g(cls, params);
    for (unsigned t = 0; t < g->num_temperatures(); ++t) {
      for (const double h_i : {0.0, 1.0, 30.0, 90.0, 1e6}) {
        for (const double delta : {0.0, 1.0, 2.0, 10.0, 1e5}) {
          const double p = g->probability(t, h_i, h_i + delta);
          ASSERT_GE(p, 0.0) << g_class_name(cls) << " t=" << t;
          ASSERT_LE(p, 1.0) << g_class_name(cls) << " t=" << t;
          ASSERT_FALSE(std::isnan(p));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, GRangeTest,
    ::testing::ValuesIn([] {
      auto classes = table41_classes();
      classes.push_back(GClass::kCohoonSahni);
      classes.push_back(GClass::kThresholdAccepting);
      return classes;
    }()),
    [](const ::testing::TestParamInfo<GClass>& info) {
      return "class" + std::to_string(static_cast<int>(info.param));
    });

}  // namespace
}  // namespace mcopt::core
