// Shared bench-driver flag parsing (bench/common): the side-effect-free
// parse_driver_options path and the positive_int_flag/positive_double_flag
// helpers behind every bench's numeric flags — a malformed, overflowing,
// zero or negative value must be rejected with an error naming the flag.
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common.hpp"
#include "obs/flight.hpp"
#include "util/args.hpp"

namespace mcopt::bench {
namespace {

std::optional<DriverOptions> parse(std::vector<const char*> argv,
                                   std::string* error) {
  argv.insert(argv.begin(), "driver");
  return parse_driver_options(static_cast<int>(argv.size()), argv.data(),
                              error);
}

TEST(DriverFlagsTest, DefaultsWhenNoFlagsGiven) {
  std::string error;
  const auto opts = parse({}, &error);
  ASSERT_TRUE(opts.has_value()) << error;
  EXPECT_EQ(opts->threads, 1u);
  EXPECT_EQ(opts->trace_sample, 1u);
  EXPECT_TRUE(opts->trace_path.empty());
  EXPECT_TRUE(opts->metrics_path.empty());
  EXPECT_TRUE(opts->profile_path.empty());
  EXPECT_TRUE(opts->prom_path.empty());
  EXPECT_EQ(opts->progress_interval, 0.0);
  EXPECT_EQ(opts->flight_capacity, 0u);
  EXPECT_EQ(opts->flight_path, "flight.jsonl");
  EXPECT_FALSE(opts->quiet);
  EXPECT_FALSE(opts->verbose);
}

TEST(DriverFlagsTest, BareFlightRecorderUsesDefaultCapacity) {
  std::string error;
  const auto opts = parse({"--flight-recorder"}, &error);
  ASSERT_TRUE(opts.has_value()) << error;
  EXPECT_EQ(opts->flight_capacity, obs::FlightRecorder::kDefaultCapacity);
  EXPECT_EQ(opts->flight_path, "flight.jsonl");
}

TEST(DriverFlagsTest, FlightRecorderCapacityAndPathParse) {
  std::string error;
  const auto opts = parse(
      {"--flight-recorder", "128", "--flight-out", "tail.jsonl"}, &error);
  ASSERT_TRUE(opts.has_value()) << error;
  EXPECT_EQ(opts->flight_capacity, 128u);
  EXPECT_EQ(opts->flight_path, "tail.jsonl");
}

TEST(DriverFlagsTest, FlightOutWithoutFlightRecorderIsAnError) {
  std::string error;
  EXPECT_FALSE(parse({"--flight-out", "tail.jsonl"}, &error).has_value());
  EXPECT_NE(error.find("--flight-out"), std::string::npos) << error;
  EXPECT_NE(error.find("--flight-recorder"), std::string::npos) << error;
}

TEST(DriverFlagsTest, RejectsNonPositiveFlightCapacity) {
  for (const char* value : {"0", "-8", "big"}) {
    std::string error;
    EXPECT_FALSE(
        parse({"--flight-recorder", value}, &error).has_value())
        << value;
    EXPECT_NE(error.find("--flight-recorder"), std::string::npos) << error;
  }
}

TEST(DriverFlagsTest, ParsesEveryObservabilityFlag) {
  std::string error;
  const auto opts = parse({"--threads", "4", "--trace", "t.jsonl",
                           "--metrics-out", "m.json", "--profile-out",
                           "p.json", "--prom-out", "prom.txt",
                           "--trace-sample", "16", "--progress", "0.5",
                           "--verbose"},
                          &error);
  ASSERT_TRUE(opts.has_value()) << error;
  EXPECT_EQ(opts->threads, 4u);
  EXPECT_EQ(opts->trace_path, "t.jsonl");
  EXPECT_EQ(opts->metrics_path, "m.json");
  EXPECT_EQ(opts->profile_path, "p.json");
  EXPECT_EQ(opts->prom_path, "prom.txt");
  EXPECT_EQ(opts->trace_sample, 16u);
  EXPECT_DOUBLE_EQ(opts->progress_interval, 0.5);
  EXPECT_TRUE(opts->verbose);
}

TEST(DriverFlagsTest, MetricsAliasStillWorks) {
  std::string error;
  const auto opts = parse({"--metrics", "m.json"}, &error);
  ASSERT_TRUE(opts.has_value()) << error;
  EXPECT_EQ(opts->metrics_path, "m.json");
}

TEST(DriverFlagsTest, BareProgressFlagUsesDefaultInterval) {
  std::string error;
  const auto opts = parse({"--progress"}, &error);
  ASSERT_TRUE(opts.has_value()) << error;
  EXPECT_DOUBLE_EQ(opts->progress_interval, 2.0);
}

TEST(DriverFlagsTest, RejectsZeroAndNegativeNumericFlags) {
  const std::vector<std::vector<const char*>> bad_cases{
      {"--trace-sample", "0"},
      {"--trace-sample", "-4"},
      {"--threads", "0"},
      {"--threads", "-1"},
      {"--progress", "-2"},
  };
  for (const auto& flags : bad_cases) {
    std::string error;
    const auto opts = parse(flags, &error);
    EXPECT_FALSE(opts.has_value()) << flags[0] << " " << flags[1];
    // The error must name the offending flag so the user can fix it.
    EXPECT_NE(error.find(flags[0]), std::string::npos) << error;
  }
}

TEST(DriverFlagsTest, RejectsNonNumericValues) {
  std::string error;
  EXPECT_FALSE(parse({"--trace-sample", "lots"}, &error).has_value());
  EXPECT_NE(error.find("--trace-sample"), std::string::npos) << error;
  EXPECT_NE(error.find("lots"), std::string::npos) << error;
}

TEST(DriverFlagsTest, RejectsUnknownFlagsAndPositionals) {
  std::string error;
  EXPECT_FALSE(parse({"--frobnicate"}, &error).has_value());
  EXPECT_NE(error.find("frobnicate"), std::string::npos) << error;

  error.clear();
  EXPECT_FALSE(parse({"stray"}, &error).has_value());
  EXPECT_NE(error.find("stray"), std::string::npos) << error;
}

TEST(DriverFlagsTest, TimelineOutParsesAndImpliesNothingElse) {
  std::string error;
  const auto opts = parse({"--timeline-out", "tl.json"}, &error);
  ASSERT_TRUE(opts.has_value()) << error;
  EXPECT_EQ(opts->timeline_path, "tl.json");
  EXPECT_TRUE(opts->profile_path.empty());
  EXPECT_TRUE(opts->perf_counters.empty());
}

TEST(DriverFlagsTest, TimelineOutRejectsEmptyPathNamingTheFlag) {
  std::string error;
  EXPECT_FALSE(parse({"--timeline-out"}, &error).has_value());
  EXPECT_NE(error.find("--timeline-out"), std::string::npos) << error;
  EXPECT_NE(error.find("file path"), std::string::npos) << error;
}

TEST(DriverFlagsTest, BarePerfCountersSelectsEveryCounter) {
  std::string error;
  const auto opts = parse({"--perf-counters"}, &error);
  ASSERT_TRUE(opts.has_value()) << error;
  EXPECT_EQ(opts->perf_counters.size(), obs::all_perf_counters().size());
}

TEST(DriverFlagsTest, PerfCountersListParses) {
  std::string error;
  const auto opts =
      parse({"--perf-counters", "cycles,task-clock"}, &error);
  ASSERT_TRUE(opts.has_value()) << error;
  ASSERT_EQ(opts->perf_counters.size(), 2u);
  EXPECT_EQ(opts->perf_counters[0], obs::PerfCounter::kCycles);
  EXPECT_EQ(opts->perf_counters[1], obs::PerfCounter::kTaskClock);
}

TEST(DriverFlagsTest, PerfCountersRejectsUnknownNamesByName) {
  std::string error;
  EXPECT_FALSE(
      parse({"--perf-counters", "cycles,zeppelins"}, &error).has_value());
  EXPECT_NE(error.find("--perf-counters"), std::string::npos) << error;
  EXPECT_NE(error.find("zeppelins"), std::string::npos) << error;
  // The known vocabulary is listed so the user can self-correct.
  EXPECT_NE(error.find("task-clock"), std::string::npos) << error;
}

TEST(DriverFlagsTest, TimelineAndPerfCombineWithOtherObservability) {
  std::string error;
  const auto opts = parse({"--timeline-out", "tl.json", "--perf-counters",
                           "task-clock", "--profile-out", "p.json",
                           "--threads", "2"},
                          &error);
  ASSERT_TRUE(opts.has_value()) << error;
  EXPECT_EQ(opts->timeline_path, "tl.json");
  EXPECT_EQ(opts->perf_counters.size(), 1u);
  EXPECT_EQ(opts->profile_path, "p.json");
  EXPECT_EQ(opts->threads, 2u);
}

util::Args bench_args(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "bench");
  return util::Args{static_cast<int>(argv.size()), argv.data()};
}

TEST(NumericFlagTest, PositiveIntFlagParsesOrFallsBack) {
  std::string error;
  EXPECT_EQ(positive_int_flag(bench_args({"--budget", "400000"}), "budget",
                              7, &error),
            400000);
  EXPECT_EQ(positive_int_flag(bench_args({}), "budget", 7, &error), 7);
  EXPECT_TRUE(error.empty()) << error;
}

TEST(NumericFlagTest, PositiveIntFlagRejectsBadValuesNamingTheFlag) {
  for (const char* value :
       {"abc", "1e3", "12x", "99999999999999999999", "0", "-5"}) {
    std::string error;
    EXPECT_FALSE(positive_int_flag(bench_args({"--budget", value}), "budget",
                                   7, &error)
                     .has_value())
        << value;
    EXPECT_NE(error.find("--budget"), std::string::npos) << error;
    EXPECT_NE(error.find(value), std::string::npos) << error;
  }
}

TEST(NumericFlagTest, PositiveDoubleFlagParsesOrFallsBack) {
  std::string error;
  EXPECT_EQ(positive_double_flag(bench_args({"--gate-pct", "2.5"}),
                                 "gate-pct", 1.0, &error),
            2.5);
  EXPECT_EQ(positive_double_flag(bench_args({"--gate-pct", "1e1"}),
                                 "gate-pct", 1.0, &error),
            10.0);
  EXPECT_EQ(positive_double_flag(bench_args({}), "gate-pct", 1.0, &error),
            1.0);
  EXPECT_TRUE(error.empty()) << error;
}

TEST(NumericFlagTest, PositiveDoubleFlagRejectsBadValuesNamingTheFlag) {
  for (const char* value :
       {"abc", "1.5x", "1e999", "0", "-0.5", "nan", "inf"}) {
    std::string error;
    EXPECT_FALSE(positive_double_flag(bench_args({"--gate-pct", value}),
                                      "gate-pct", 1.0, &error)
                     .has_value())
        << value;
    EXPECT_NE(error.find("--gate-pct"), std::string::npos) << error;
    EXPECT_NE(error.find(value), std::string::npos) << error;
  }
}

TEST(DriverFlagsTest, QuietAndVerboseConflict) {
  std::string error;
  EXPECT_FALSE(parse({"--quiet", "--verbose"}, &error).has_value());
  EXPECT_NE(error.find("--quiet"), std::string::npos) << error;
  EXPECT_NE(error.find("--verbose"), std::string::npos) << error;
}

}  // namespace
}  // namespace mcopt::bench
