// TimelineBuilder: Chrome Trace Event emission, lane cursors, metadata
// dedup, and the synthetic-layout nesting guarantee.
#include "obs/timeline.hpp"

#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>

#include <string>

#include "obs/profiler.hpp"

namespace mcopt::obs {
namespace {

ProfileTree two_level_tree() {
  ProfileTree tree;
  const std::int32_t run = tree.find_or_add(-1, "run");
  tree.nodes[static_cast<std::size_t>(run)].calls = 2;
  tree.nodes[static_cast<std::size_t>(run)].ticks = 100;
  tree.nodes[static_cast<std::size_t>(run)].wall_ns = 10'000;
  const std::int32_t sweep = tree.find_or_add(run, "sweep");
  tree.nodes[static_cast<std::size_t>(sweep)].calls = 20;
  tree.nodes[static_cast<std::size_t>(sweep)].wall_ns = 6'000;
  const std::int32_t swap = tree.find_or_add(run, "swap");
  tree.nodes[static_cast<std::size_t>(swap)].calls = 40;
  tree.nodes[static_cast<std::size_t>(swap)].wall_ns = 3'000;
  return tree;
}

TEST(TimelineBuilderTest, EmptyBuilderAndEmptyTreeProduceNoSpans) {
  TimelineBuilder builder;
  EXPECT_TRUE(builder.empty());
  builder.add_tree(ProfileTree{}, 0, 0);
  EXPECT_TRUE(builder.empty());
  EXPECT_EQ(builder.num_events(), 0u);
  // Still a valid document.
  EXPECT_NE(builder.to_json().find("\"traceEvents\": []"),
            std::string::npos);
}

TEST(TimelineBuilderTest, MetadataRecordsAreDeduplicatedPerLane) {
  TimelineBuilder builder;
  builder.set_process_name(1, "workers");
  builder.set_process_name(1, "workers again");  // dropped
  builder.set_thread_name(1, 0, "caller thread");
  builder.set_thread_name(1, 0, "renamed");      // dropped
  builder.set_thread_name(1, 1, "worker 1");
  // process pid 1 and thread (1, 0) dedup independently: tid 0 of the
  // process-name record must not shadow the thread-name record.
  EXPECT_EQ(builder.num_events(), 3u);
  const std::string json = builder.to_json();
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"workers\"}"), std::string::npos);
  EXPECT_EQ(json.find("workers again"), std::string::npos);
  EXPECT_EQ(json.find("renamed"), std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"worker 1\"}"), std::string::npos);
}

TEST(TimelineBuilderTest, ChildrenPackSequentiallyInsideTheParent) {
  TimelineBuilder builder;
  builder.add_tree(two_level_tree(), 0, 0);
  ASSERT_EQ(builder.num_events(), 3u);
  const std::string json = builder.to_json();
  // Parent spans [0, 10); children pack from the parent's start:
  // sweep [0, 6), swap [6, 9).  ts/dur are microseconds.
  EXPECT_NE(json.find("{\"name\": \"run\", \"ph\": \"X\", \"pid\": 0, "
                      "\"tid\": 0, \"cat\": \"profile\", \"ts\": 0.000, "
                      "\"dur\": 10.000"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"sweep\", \"ph\": \"X\", \"pid\": 0, "
                      "\"tid\": 0, \"cat\": \"profile\", \"ts\": 0.000, "
                      "\"dur\": 6.000"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"swap\", \"ph\": \"X\", \"pid\": 0, "
                      "\"tid\": 0, \"cat\": \"profile\", \"ts\": 6.000, "
                      "\"dur\": 3.000"),
            std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"calls\": 2, \"ticks\": 100}"),
            std::string::npos);
}

TEST(TimelineBuilderTest, LaneCursorAppendsTreesEndToEndPerLane) {
  TimelineBuilder builder;
  builder.add_tree(two_level_tree(), 1, 3);
  builder.add_tree(two_level_tree(), 1, 3);  // appends after the first
  builder.add_tree(two_level_tree(), 1, 4);  // separate lane: starts at 0
  const std::string json = builder.to_json();
  EXPECT_NE(json.find("\"tid\": 3, \"cat\": \"profile\", \"ts\": 10.000, "
                      "\"dur\": 10.000"),
            std::string::npos);
  EXPECT_NE(json.find("\"tid\": 4, \"cat\": \"profile\", \"ts\": 0.000, "
                      "\"dur\": 10.000"),
            std::string::npos);
}

TEST(TimelineBuilderTest, ScopeNamesAreJsonEscaped) {
  ProfileTree tree;
  const std::int32_t node = tree.find_or_add(-1, "we\"ird\\name");
  tree.nodes[static_cast<std::size_t>(node)].wall_ns = 1000;
  TimelineBuilder builder;
  builder.add_tree(tree, 0, 0);
  builder.set_process_name(0, "line\nbreak");
  const std::string json = builder.to_json();
  EXPECT_NE(json.find("we\\\"ird\\\\name"), std::string::npos);
  EXPECT_NE(json.find("line\\nbreak"), std::string::npos);
}

}  // namespace
}  // namespace mcopt::obs
