#include "util/args.hpp"

#include <gtest/gtest.h>
#include <initializer_list>
#include <string>
#include <vector>

#include <stdexcept>

namespace mcopt::util {
namespace {

Args parse(std::initializer_list<const char*> words) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), words.begin(), words.end());
  return Args(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgsTest, EmptyCommandLine) {
  const Args args(0, nullptr);
  EXPECT_TRUE(args.program().empty());
  EXPECT_TRUE(args.positional().empty());
  EXPECT_FALSE(args.has("anything"));
}

TEST(ArgsTest, PositionalWordsKeepOrder) {
  const Args args = parse({"solve", "input.mcnl"});
  EXPECT_EQ(args.program(), "prog");
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "solve");
  EXPECT_EQ(args.positional()[1], "input.mcnl");
}

TEST(ArgsTest, FlagWithSeparateValue) {
  const Args args = parse({"--budget", "5000"});
  EXPECT_TRUE(args.has("budget"));
  EXPECT_EQ(args.get("budget", ""), "5000");
  EXPECT_EQ(args.get_int("budget", 0), 5000);
}

TEST(ArgsTest, FlagWithEqualsValue) {
  const Args args = parse({"--method=g1", "--scale=0.5"});
  EXPECT_EQ(args.get("method", "?"), "g1");
  EXPECT_DOUBLE_EQ(args.get_double("scale", 0.0), 0.5);
}

TEST(ArgsTest, BooleanFlagBeforeAnotherFlag) {
  const Args args = parse({"--verbose", "--budget", "10"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_FALSE(args.value("verbose").has_value());
  EXPECT_EQ(args.get_int("budget", 0), 10);
}

TEST(ArgsTest, TrailingBooleanFlag) {
  const Args args = parse({"--dry-run"});
  EXPECT_TRUE(args.has("dry-run"));
  EXPECT_FALSE(args.value("dry-run").has_value());
}

TEST(ArgsTest, RepeatedFlagKeepsLast) {
  const Args args = parse({"--seed", "1", "--seed", "2"});
  EXPECT_EQ(args.get_int("seed", 0), 2);
}

TEST(ArgsTest, DefaultsWhenAbsent) {
  const Args args = parse({});
  EXPECT_EQ(args.get("method", "g1"), "g1");
  EXPECT_EQ(args.get_int("budget", 600), 600);
  EXPECT_DOUBLE_EQ(args.get_double("scale", 1.5), 1.5);
}

TEST(ArgsTest, BadNumbersThrow) {
  const Args args = parse({"--budget", "12x", "--scale", "abc"});
  EXPECT_THROW((void)args.get_int("budget", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("scale", 0.0), std::invalid_argument);
}

TEST(ArgsTest, NegativeNumbersParseAsValues) {
  // "-5" does not start with "--", so it is consumed as the flag's value.
  const Args args = parse({"--delta", "-5"});
  EXPECT_EQ(args.get_int("delta", 0), -5);
}

TEST(ArgsTest, DoubleDashAloneIsPositional) {
  const Args args = parse({"--", "file"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "--");
}

TEST(ArgsTest, UnknownFlagDetection) {
  const Args args = parse({"--budget", "5", "--typo", "x"});
  const auto unknown = args.unknown_flags({"budget", "seed"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

/// The message `read` throws; empty when it does not throw.
template <class Read>
std::string error_of(Read read) {
  try {
    read();
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return {};
}

// The typed getters behind every numeric flag of the bench drivers and the
// examples (the tests keep the names of the bench helpers they replace).
TEST(NumericFlagTest, PositiveIntFlagParsesOrFallsBack) {
  const Args args =
      parse({"--budget", "400000", "--reps", "18446744073709551615"});
  EXPECT_EQ(args.get_u64("budget", 7, 1), 400000u);
  EXPECT_EQ(args.get_count("budget", 7, 1), 400000u);
  EXPECT_EQ(args.get_u64("reps", 7, 1), 18446744073709551615u);
  EXPECT_EQ(args.get_u64("seed", 7, 1), 7u);
  EXPECT_EQ(args.get_count("seed", 7, 1), 7u);
}

TEST(NumericFlagTest, PositiveIntFlagRejectsBadValuesNamingTheFlag) {
  for (const char* value : {"abc", "1e3", "12x", "99999999999999999999",
                            "18446744073709551616", "0", "-5", "+5", " 5"}) {
    const Args args = parse({"--budget", value});
    for (const std::string& error :
         {error_of([&] { (void)args.get_u64("budget", 7, 1); }),
          error_of([&] { (void)args.get_count("budget", 7, 1); })}) {
      EXPECT_NE(error.find("--budget"), std::string::npos)
          << value << ": " << error;
      EXPECT_NE(error.find(value), std::string::npos) << error;
    }
  }
}

TEST(NumericFlagTest, PositiveDoubleFlagParsesOrFallsBack) {
  EXPECT_EQ(parse({"--gate-pct", "2.5"}).get_real("gate-pct", 1.0, 0.001),
            2.5);
  EXPECT_EQ(parse({"--gate-pct", "1e1"}).get_real("gate-pct", 1.0, 0.001),
            10.0);
  EXPECT_EQ(parse({}).get_real("gate-pct", 1.0, 0.001), 1.0);
}

TEST(NumericFlagTest, PositiveDoubleFlagRejectsBadValuesNamingTheFlag) {
  for (const char* value :
       {"abc", "1.5x", "1e999", "0", "-0.5", "nan", "inf", "+1"}) {
    const Args args = parse({"--gate-pct", value});
    const std::string error =
        error_of([&] { (void)args.get_real("gate-pct", 1.0, 0.001); });
    EXPECT_NE(error.find("--gate-pct"), std::string::npos)
        << value << ": " << error;
    EXPECT_NE(error.find(value), std::string::npos) << error;
  }
}

TEST(NumericFlagTest, TypedGettersRejectAFlagWithoutAValue) {
  for (const char* word : {"--budget", "--budget="}) {
    const Args args = parse({word});
    for (const std::string& error :
         {error_of([&] { (void)args.get_u64("budget", 7, 0); }),
          error_of([&] { (void)args.get_count("budget", 7, 0); }),
          error_of([&] { (void)args.get_real("budget", 7.0, 0.0); })}) {
      EXPECT_NE(error.find("--budget expects a value"), std::string::npos)
          << word << ": " << error;
    }
  }
}

TEST(NumericFlagTest, TypedGettersHonourTheirMaximum) {
  const Args args = parse({"--method", "23", "--scale", "1e7"});
  EXPECT_EQ(args.get_count("method", 1, 1, 23), 23u);
  EXPECT_NE(error_of([&] { (void)args.get_count("method", 1, 1, 22); })
                .find("--method expects a whole number in [1, 22]"),
            std::string::npos);
  EXPECT_NE(error_of([&] { (void)args.get_real("scale", 1.0, 0.001, 1e6); })
                .find("--scale"),
            std::string::npos);
}

TEST(NumericFlagTest, ParsersNameWhatTheyParse) {
  EXPECT_EQ(parse_u64("seed", "42", 0), 42u);
  EXPECT_DOUBLE_EQ(parse_real("MCOPT_BENCH_SCALE", "0.05", 0.01), 0.05);
  EXPECT_EQ(error_of([] { (void)parse_u64("seed", "abc", 0); }),
            "seed expects a whole number >= 0, got 'abc'");
  EXPECT_EQ(error_of([] { (void)parse_real("MCOPT_BENCH_SCALE", "0.001",
                                           0.01); }),
            "MCOPT_BENCH_SCALE expects a finite number >= 0.01, got '0.001'");
}

}  // namespace
}  // namespace mcopt::util
