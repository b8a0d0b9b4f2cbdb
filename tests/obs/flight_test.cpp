// Flight recorder: the bounded last-N event store and its crash-dump
// path.  The ring's wraparound must keep the exact last N events in
// order, the signal-safe formatter must match the canonical JSONL writer
// byte for byte, and an aborting process must leave the dump file behind
// (death tests — the only way to exercise a real SIGABRT end to end).
#include "obs/flight.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <csignal>
#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>

#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/event.hpp"
#include "obs/trace.hpp"

namespace mcopt::obs {
namespace {

Event numbered_event(std::uint64_t i) {
  Event event;
  event.kind = static_cast<EventKind>(i % 6);  // everything but kWorkerSteal
  event.reason =
      event.kind == EventKind::kStageBegin ? StageReason::kSlice
                                           : StageReason::kNone;
  event.stage = static_cast<std::uint32_t>(i % 5);
  event.run = 3;
  event.restart = i / 7;
  event.worker = i % 3;
  event.tick = i;
  event.cost = 1000.5 - static_cast<double>(i);
  event.best = 900.25 - static_cast<double>(i) / 3.0;
  return event;
}

std::string jsonl_of(const std::vector<Event>& events) {
  std::string out;
  for (const Event& event : events) append_jsonl(event, out);
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(FlightTest, FormatJsonlMatchesAppendJsonlForEveryKind) {
  for (std::uint64_t i = 0; i < 32; ++i) {
    Event event = numbered_event(i);
    if (i == 31) event.kind = EventKind::kWorkerSteal;
    std::string canonical;
    append_jsonl(event, canonical);
    char buf[256];
    const std::size_t len = format_jsonl(event, buf, sizeof buf);
    ASSERT_GT(len, 0u);
    EXPECT_EQ(std::string(buf, len), canonical) << "event " << i;
  }
}

TEST(FlightTest, FormatJsonlRejectsTinyBuffer) {
  char buf[8];
  EXPECT_EQ(format_jsonl(numbered_event(0), buf, sizeof buf), 0u);
}

TEST(FlightTest, RingWraparoundKeepsExactLastN) {
  constexpr std::size_t kCapacity = 8;
  RingBufferSink ring{kCapacity};
  constexpr std::uint64_t kTotal = 21;  // wraps the ring 2.6 times
  for (std::uint64_t i = 0; i < kTotal; ++i) ring.write(numbered_event(i));

  EXPECT_EQ(ring.size(), kCapacity);
  EXPECT_EQ(ring.dropped(), kTotal - kCapacity);
  const std::vector<Event> tail = ring.snapshot();
  ASSERT_EQ(tail.size(), kCapacity);
  for (std::size_t i = 0; i < kCapacity; ++i) {
    EXPECT_EQ(tail[i].tick, kTotal - kCapacity + i)
        << "snapshot must be the last " << kCapacity
        << " events, oldest first";
  }
}

TEST(FlightTest, CrashDumpWritesSnapshotBytesWithoutLocking) {
  RingBufferSink ring{5};
  for (std::uint64_t i = 0; i < 13; ++i) ring.write(numbered_event(i));

  const std::string path = testing::TempDir() + "crash_dump_test.jsonl";
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(ring.crash_dump(fd), 5u);
  ASSERT_EQ(::close(fd), 0);

  EXPECT_EQ(read_file(path), jsonl_of(ring.snapshot()));
  std::remove(path.c_str());
}

TEST(FlightTest, CrashDumpOfPartiallyFilledRingIsInOrder) {
  RingBufferSink ring{64};
  for (std::uint64_t i = 0; i < 3; ++i) ring.write(numbered_event(i));
  const std::string path = testing::TempDir() + "crash_dump_partial.jsonl";
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(ring.crash_dump(fd), 3u);
  ASSERT_EQ(::close(fd), 0);
  EXPECT_EQ(read_file(path), jsonl_of(ring.snapshot()));
  std::remove(path.c_str());
}

TEST(FlightTest, TeeSinkForwardsToBothChildren) {
  VectorSink a;
  RingBufferSink b{4};
  TeeSink tee{&a, &b};
  for (std::uint64_t i = 0; i < 6; ++i) tee.write(numbered_event(i));
  tee.flush();
  EXPECT_EQ(a.events().size(), 6u);
  EXPECT_EQ(b.size(), 4u);
  EXPECT_EQ(b.dropped(), 2u);
  EXPECT_EQ(b.snapshot().back().tick, 5u);
}

// Death tests fork the whole test; threadsafe style re-executes the binary
// so the child arms its own FlightRecorder singleton and the parent's
// process state (signal handlers included) is never disturbed.
class FlightDeathTest : public testing::Test {
 protected:
  void SetUp() override {
    testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

// Arms the process-wide recorder, feeds it, and dies the given way.  Runs
// inside the death-test child only.
[[noreturn]] void feed_and_die(const std::string& path, bool via_terminate) {
  FlightRecorder& flight = FlightRecorder::instance();
  flight.arm(/*capacity=*/4, path);
  flight.install_crash_handlers();
  for (std::uint64_t i = 0; i < 11; ++i) {
    flight.sink()->write(numbered_event(i));
  }
  if (via_terminate) std::terminate();
  std::abort();
}

TEST_F(FlightDeathTest, AbortDumpsLastNEventsToFile) {
  const std::string path = testing::TempDir() + "flight_abort.jsonl";
  std::remove(path.c_str());
  EXPECT_DEATH(feed_and_die(path, /*via_terminate=*/false),
               "flight recorder dumped event tail");

  // The child died on SIGABRT; its handler must have left the tail behind.
  std::vector<Event> expected;
  for (std::uint64_t i = 7; i < 11; ++i) {
    expected.push_back(numbered_event(i));
  }
  EXPECT_EQ(read_file(path), jsonl_of(expected));
  std::remove(path.c_str());
}

TEST_F(FlightDeathTest, TerminateHandlerDumpsToo) {
  const std::string path = testing::TempDir() + "flight_terminate.jsonl";
  std::remove(path.c_str());
  EXPECT_DEATH(feed_and_die(path, /*via_terminate=*/true),
               "flight recorder dumped event tail");
  EXPECT_FALSE(read_file(path).empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mcopt::obs
