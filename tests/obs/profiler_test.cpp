// ProfileTree structure, merges, re-rooting, and the ProfileScope RAII
// path through a Recorder.
#include "obs/profiler.hpp"

#include <cstddef>
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace mcopt::obs {
namespace {

TEST(ProfileTreeTest, FindOrAddCreatesOncePerParentNamePair) {
  ProfileTree tree;
  const std::int32_t a = tree.find_or_add(-1, "run");
  const std::int32_t b = tree.find_or_add(a, "sweep");
  const std::int32_t c = tree.find_or_add(a, "swap");
  EXPECT_EQ(tree.find_or_add(-1, "run"), a);
  EXPECT_EQ(tree.find_or_add(a, "sweep"), b);
  EXPECT_NE(b, c);
  // Same name under a different parent is a different node.
  EXPECT_NE(tree.find_or_add(b, "swap"), c);
  EXPECT_EQ(tree.nodes.size(), 4u);
  // Parent-before-child invariant (what one-pass merge relies on).
  for (std::size_t i = 0; i < tree.nodes.size(); ++i) {
    EXPECT_LT(tree.nodes[i].parent, static_cast<std::int32_t>(i));
  }
}

TEST(ProfileTreeTest, MergeAccumulatesSameShapeAndAddsNewBranches) {
  ProfileTree a;
  const std::int32_t run_a = a.find_or_add(-1, "run");
  a.nodes[static_cast<std::size_t>(run_a)].calls = 1;
  a.nodes[static_cast<std::size_t>(run_a)].ticks = 100;
  const std::int32_t sweep_a = a.find_or_add(run_a, "sweep");
  a.nodes[static_cast<std::size_t>(sweep_a)].ticks = 90;

  ProfileTree b;
  const std::int32_t run_b = b.find_or_add(-1, "run");
  b.nodes[static_cast<std::size_t>(run_b)].calls = 2;
  b.nodes[static_cast<std::size_t>(run_b)].ticks = 50;
  const std::int32_t swap_b = b.find_or_add(run_b, "swap");
  b.nodes[static_cast<std::size_t>(swap_b)].ticks = 7;

  a.merge(b);
  ASSERT_EQ(a.nodes.size(), 3u);
  EXPECT_EQ(a.nodes[static_cast<std::size_t>(run_a)].calls, 3u);
  EXPECT_EQ(a.nodes[static_cast<std::size_t>(run_a)].ticks, 150u);
  EXPECT_EQ(a.nodes[static_cast<std::size_t>(sweep_a)].ticks, 90u);
  EXPECT_EQ(a.nodes.back().name, "swap");
  EXPECT_EQ(a.nodes.back().ticks, 7u);
  EXPECT_EQ(a.nodes.back().parent, run_a);
}

TEST(ProfileTreeTest, NestUnderReRootsAndSumsChildWall) {
  ProfileTree tree;
  const std::int32_t r1 = tree.find_or_add(-1, "figure1");
  tree.nodes[static_cast<std::size_t>(r1)].wall_ns = 30;
  const std::int32_t child = tree.find_or_add(r1, "sweep");
  tree.nodes[static_cast<std::size_t>(child)].wall_ns = 10;

  tree.nest_under("multistart", 5, 1234);
  ASSERT_EQ(tree.nodes.size(), 3u);
  EXPECT_EQ(tree.nodes[0].name, "multistart");
  EXPECT_EQ(tree.nodes[0].parent, -1);
  EXPECT_EQ(tree.nodes[0].calls, 5u);
  EXPECT_EQ(tree.nodes[0].ticks, 1234u);
  // Only former roots contribute to the new root's wall time.
  EXPECT_EQ(tree.nodes[0].wall_ns, 30u);
  EXPECT_EQ(tree.nodes[1].name, "figure1");
  EXPECT_EQ(tree.nodes[1].parent, 0);
  EXPECT_EQ(tree.nodes[2].parent, 1);
}

TEST(ProfileTreeTest, ToJsonNestsChildrenAndCanDropWall) {
  ProfileTree tree;
  const std::int32_t run = tree.find_or_add(-1, "run");
  tree.nodes[static_cast<std::size_t>(run)].calls = 1;
  tree.nodes[static_cast<std::size_t>(run)].ticks = 10;
  tree.nodes[static_cast<std::size_t>(run)].wall_ns = 99;
  const std::int32_t sweep = tree.find_or_add(run, "sweep");
  tree.nodes[static_cast<std::size_t>(sweep)].calls = 4;
  tree.nodes[static_cast<std::size_t>(sweep)].ticks = 8;

  const std::string with_wall = tree.to_json(/*include_wall=*/true);
  EXPECT_NE(with_wall.find("\"wall_ns\": 99"), std::string::npos);
  EXPECT_NE(with_wall.find("\"children\": ["), std::string::npos);

  const std::string deterministic = tree.to_json(/*include_wall=*/false);
  EXPECT_EQ(deterministic.find("wall_ns"), std::string::npos);
  EXPECT_NE(deterministic.find("\"name\": \"run\""), std::string::npos);
  EXPECT_NE(deterministic.find("\"name\": \"sweep\""), std::string::npos);
}

TEST(ProfileScopeTest, RecorderBuildsTreeWithTicks) {
  RunMetrics metrics;
  Recorder rec{nullptr, /*collect_metrics=*/true, /*trace_sample=*/1,
               /*run=*/0, /*collect_profile=*/true};
  EXPECT_TRUE(rec.profiling());
  rec.begin_run(&metrics, 1);
  {
    ProfileScope outer{rec, "run"};
    outer.add_ticks(5);
    {
      ProfileScope inner{rec, "sweep"};
      inner.add_ticks(3);
    }
    {
      MCOPT_PROFILE_SCOPE(rec, "sweep");
      rec.profile_add_ticks(2);
    }
  }
  rec.end_run();

  ASSERT_EQ(metrics.profile.nodes.size(), 2u);
  EXPECT_EQ(metrics.profile.nodes[0].name, "run");
  EXPECT_EQ(metrics.profile.nodes[0].calls, 1u);
  EXPECT_EQ(metrics.profile.nodes[0].ticks, 5u);
  EXPECT_EQ(metrics.profile.nodes[1].name, "sweep");
  EXPECT_EQ(metrics.profile.nodes[1].calls, 2u);
  EXPECT_EQ(metrics.profile.nodes[1].ticks, 5u);
  EXPECT_EQ(metrics.profile.nodes[1].parent, 0);
}

TEST(ProfileScopeTest, NoOpWhenProfilingOff) {
  RunMetrics metrics;
  Recorder rec{nullptr, /*collect_metrics=*/true};  // metrics, no profiler
  EXPECT_FALSE(rec.profiling());
  rec.begin_run(&metrics, 1);
  {
    ProfileScope scope{rec, "run"};
    scope.add_ticks(5);
  }
  rec.end_run();
  EXPECT_TRUE(metrics.profile.empty());

  Recorder off;
  EXPECT_FALSE(off.profile_enter("run"));
}

TEST(ProfileScopeTest, EndRunFailsafeClosesOpenScopes) {
  RunMetrics metrics;
  Recorder rec{nullptr, /*collect_metrics=*/true, /*trace_sample=*/1,
               /*run=*/0, /*collect_profile=*/true};
  rec.begin_run(&metrics, 1);
  EXPECT_TRUE(rec.profile_enter("left_open"));
  rec.end_run();  // must not leave a dangling open scope
  ASSERT_EQ(metrics.profile.nodes.size(), 1u);
  EXPECT_EQ(metrics.profile.nodes[0].calls, 1u);

  // A fresh run on the same recorder starts with a clean scope stack.
  RunMetrics second;
  rec.begin_run(&second, 1);
  EXPECT_TRUE(rec.profile_enter("fresh"));
  rec.profile_exit();
  rec.end_run();
  ASSERT_EQ(second.profile.nodes.size(), 1u);
  EXPECT_EQ(second.profile.nodes[0].parent, -1);
  EXPECT_EQ(second.profile.nodes[0].name, "fresh");
}

std::uint64_t child_wall_sum(const ProfileTree& tree, std::int32_t parent) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < tree.nodes.size(); ++i) {
    if (tree.nodes[i].parent == parent) sum += tree.nodes[i].wall_ns;
  }
  return sum;
}

void expect_child_sums_within_parents(const ProfileTree& tree) {
  for (std::size_t i = 0; i < tree.nodes.size(); ++i) {
    EXPECT_LE(child_wall_sum(tree, static_cast<std::int32_t>(i)),
              tree.nodes[i].wall_ns)
        << "children of '" << tree.nodes[i].name
        << "' carry more wall time than the parent's inclusive time";
  }
}

void spin_a_little() {
  volatile std::uint64_t sink = 0;
  for (int i = 0; i < 20000; ++i) sink = sink + static_cast<std::uint64_t>(i);
}

// The invariant the timeline export renders from: a node's children can
// never account for more wall time than the node itself — each child
// interval is a sub-interval of its parent's open interval.
TEST(ProfileScopeTest, ChildWallSumsNeverExceedParentInclusiveTime) {
  RunMetrics metrics;
  Recorder rec{nullptr, /*collect_metrics=*/true, /*trace_sample=*/1,
               /*run=*/0, /*collect_profile=*/true};
  for (int repeat = 0; repeat < 3; ++repeat) {
    rec.begin_run(&metrics, 1);
    ProfileScope run{rec, "run"};
    {
      ProfileScope sweep{rec, "sweep"};
      {
        ProfileScope swap{rec, "swap"};
        spin_a_little();
      }
      spin_a_little();
    }
    {
      ProfileScope recount{rec, "recount"};
      spin_a_little();
    }
  }
  rec.end_run();
  ASSERT_EQ(metrics.profile.nodes.size(), 4u);
  EXPECT_GT(metrics.profile.nodes[0].wall_ns, 0u);
  expect_child_sums_within_parents(metrics.profile);

  // The invariant survives the aggregation pipeline the drivers run:
  // shard merge and nest_under re-rooting.
  ProfileTree merged = metrics.profile;
  merged.merge(metrics.profile);
  expect_child_sums_within_parents(merged);
  merged.nest_under("row", 1, 0);
  expect_child_sums_within_parents(merged);
}

// begin_run without end_run must not strand wall time: scopes still open
// are closed into the *old* run first, so exited children never out-weigh
// the parent they ran under.
TEST(ProfileScopeTest, BeginRunClosesScopesLeftOpenByThePreviousRun) {
  RunMetrics first;
  Recorder rec{nullptr, /*collect_metrics=*/true, /*trace_sample=*/1,
               /*run=*/0, /*collect_profile=*/true};
  rec.begin_run(&first, 1);
  EXPECT_TRUE(rec.profile_enter("run"));
  EXPECT_TRUE(rec.profile_enter("sweep"));
  spin_a_little();
  rec.profile_exit();  // child accrues wall; parent still open

  RunMetrics second;
  rec.begin_run(&second, 1);  // no end_run: the failsafe path
  rec.end_run();

  ASSERT_EQ(first.profile.nodes.size(), 2u);
  EXPECT_GT(first.profile.nodes[0].wall_ns, 0u);
  expect_child_sums_within_parents(first.profile);
  EXPECT_TRUE(second.profile.empty());
}

}  // namespace
}  // namespace mcopt::obs
