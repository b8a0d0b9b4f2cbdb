// Shared bench-driver flag parsing (bench/common): Driver::parse, the
// side-effect-free half of bench::Driver — an unknown flag, a stray word, a
// conflicting pair, or a malformed, overflowing, zero or negative value
// must be rejected with an error naming the flag.
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common.hpp"
#include "obs/flight.hpp"
#include "util/args.hpp"

namespace mcopt::bench {
namespace {

DriverOptions parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "driver");
  return Driver::parse(
      util::Args{static_cast<int>(argv.size()), argv.data()});
}

/// The message Driver::parse throws for `argv`; empty when it parses.
std::string parse_error(const std::vector<const char*>& argv) {
  try {
    (void)parse(argv);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return {};
}

TEST(DriverFlagsTest, DefaultsWhenNoFlagsGiven) {
  const DriverOptions opts = parse({});
  EXPECT_EQ(opts.threads, 1u);
  EXPECT_EQ(opts.trace_sample, 1u);
  EXPECT_TRUE(opts.trace_path.empty());
  EXPECT_TRUE(opts.metrics_path.empty());
  EXPECT_TRUE(opts.profile_path.empty());
  EXPECT_TRUE(opts.prom_path.empty());
  EXPECT_EQ(opts.progress_interval, 0.0);
  EXPECT_EQ(opts.flight_capacity, 0u);
  EXPECT_EQ(opts.flight_path, "flight.jsonl");
  EXPECT_FALSE(opts.quiet);
  EXPECT_FALSE(opts.verbose);
}

TEST(DriverFlagsTest, BareFlightRecorderUsesDefaultCapacity) {
  const DriverOptions opts = parse({"--flight-recorder"});
  EXPECT_EQ(opts.flight_capacity, obs::FlightRecorder::kDefaultCapacity);
  EXPECT_EQ(opts.flight_path, "flight.jsonl");
}

TEST(DriverFlagsTest, FlightRecorderCapacityAndPathParse) {
  const DriverOptions opts = parse(
      {"--flight-recorder", "128", "--flight-out", "tail.jsonl"});
  EXPECT_EQ(opts.flight_capacity, 128u);
  EXPECT_EQ(opts.flight_path, "tail.jsonl");
}

TEST(DriverFlagsTest, FlightOutWithoutFlightRecorderIsAnError) {
  const std::string error = parse_error({"--flight-out", "tail.jsonl"});
  EXPECT_NE(error.find("--flight-out"), std::string::npos) << error;
  EXPECT_NE(error.find("--flight-recorder"), std::string::npos) << error;
}

TEST(DriverFlagsTest, RejectsNonPositiveFlightCapacity) {
  for (const char* value : {"0", "-8", "big"}) {
    const std::string error = parse_error({"--flight-recorder", value});
    EXPECT_NE(error.find("--flight-recorder"), std::string::npos)
        << value << ": " << error;
  }
}

TEST(DriverFlagsTest, ParsesEveryObservabilityFlag) {
  const DriverOptions opts = parse(
      {"--threads", "4", "--trace", "t.jsonl", "--metrics-out", "m.json",
       "--profile-out", "p.json", "--prom-out", "prom.txt", "--trace-sample",
       "16", "--progress", "0.5", "--verbose"});
  EXPECT_EQ(opts.threads, 4u);
  EXPECT_EQ(opts.trace_path, "t.jsonl");
  EXPECT_EQ(opts.metrics_path, "m.json");
  EXPECT_EQ(opts.profile_path, "p.json");
  EXPECT_EQ(opts.prom_path, "prom.txt");
  EXPECT_EQ(opts.trace_sample, 16u);
  EXPECT_DOUBLE_EQ(opts.progress_interval, 0.5);
  EXPECT_TRUE(opts.verbose);
}

TEST(DriverFlagsTest, MetricsAliasStillWorks) {
  EXPECT_EQ(parse({"--metrics", "m.json"}).metrics_path, "m.json");
}

TEST(DriverFlagsTest, BareProgressFlagUsesDefaultInterval) {
  EXPECT_DOUBLE_EQ(parse({"--progress"}).progress_interval, 2.0);
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
    // The error must name the offending flag so the user can fix it.
    const std::string error = parse_error(flags);
    EXPECT_NE(error.find(flags[0]), std::string::npos)
        << flags[0] << " " << flags[1] << ": " << error;
  }
}

TEST(DriverFlagsTest, RejectsNonNumericValues) {
  const std::string error = parse_error({"--trace-sample", "lots"});
  EXPECT_NE(error.find("--trace-sample"), std::string::npos) << error;
  EXPECT_NE(error.find("lots"), std::string::npos) << error;
}

TEST(DriverFlagsTest, RejectsUnknownFlagsAndPositionals) {
  std::string error = parse_error({"--frobnicate"});
  EXPECT_NE(error.find("frobnicate"), std::string::npos) << error;
  error = parse_error({"stray"});
  EXPECT_NE(error.find("stray"), std::string::npos) << error;
}

TEST(DriverFlagsTest, OwnFlagsAreKnownOnlyToTheirDriver) {
  const std::vector<const char*> argv{"driver", "--reps", "3"};
  const util::Args args{static_cast<int>(argv.size()), argv.data()};
  EXPECT_NO_THROW((void)Driver::parse(args, {"reps"}));
  EXPECT_THROW((void)Driver::parse(args), std::invalid_argument);
}

TEST(DriverFlagsTest, QuietAndVerboseConflict) {
  const std::string error = parse_error({"--quiet", "--verbose"});
  EXPECT_NE(error.find("--quiet"), std::string::npos) << error;
  EXPECT_NE(error.find("--verbose"), std::string::npos) << error;
}

}  // namespace
}  // namespace mcopt::bench
