// Sinks and the JSONL schema.  The golden-line tests below pin THE
// interchange format consumed by tools/mcopt_report.py — a change that
// breaks them must update the tool (and its `validate` subcommand) in the
// same commit.
#include "obs/trace.hpp"

#include <algorithm>
#include <cfloat>
#include <cstdint>
#include <cstdio>
#include <gtest/gtest.h>
#include <limits>
#include <ostream>
#include <string>

#include <sstream>
#include <stdexcept>
#include <vector>

namespace mcopt::obs {
namespace {

Event make_event(EventKind kind, std::uint64_t tick) {
  Event event;
  event.kind = kind;
  event.tick = tick;
  return event;
}

TEST(EventTest, KindNamesAreStable) {
  EXPECT_STREQ(event_kind_name(EventKind::kStageBegin), "stage_begin");
  EXPECT_STREQ(event_kind_name(EventKind::kProposal), "proposal_sampled");
  EXPECT_STREQ(event_kind_name(EventKind::kAccept), "accept");
  EXPECT_STREQ(event_kind_name(EventKind::kReject), "reject");
  EXPECT_STREQ(event_kind_name(EventKind::kRestartBegin), "restart_begin");
  EXPECT_STREQ(event_kind_name(EventKind::kNewBest), "new_best");
  EXPECT_STREQ(event_kind_name(EventKind::kWorkerSteal), "worker_steal");
}

TEST(EventTest, ReasonNamesAreStable) {
  EXPECT_STREQ(stage_reason_name(StageReason::kNone), "none");
  EXPECT_STREQ(stage_reason_name(StageReason::kStart), "start");
  EXPECT_STREQ(stage_reason_name(StageReason::kSlice), "slice");
  EXPECT_STREQ(stage_reason_name(StageReason::kPatience), "patience");
  EXPECT_STREQ(stage_reason_name(StageReason::kEquilibrium), "equilibrium");
}

TEST(EventTest, GoldenJsonlLine) {
  Event event;
  event.kind = EventKind::kAccept;
  event.run = 3;
  event.restart = 14;
  event.worker = 2;
  event.tick = 1234;
  event.stage = 5;
  event.cost = 71.0;
  event.best = 68.5;
  std::string out;
  append_jsonl(event, out);
  EXPECT_EQ(out,
            "{\"event\":\"accept\",\"run\":3,\"restart\":14,\"worker\":2,"
            "\"tick\":1234,\"stage\":5,\"cost\":71,\"best\":68.5}\n");
}

TEST(EventTest, GoldenJsonlStageBeginCarriesReason) {
  Event event;
  event.kind = EventKind::kStageBegin;
  event.reason = StageReason::kPatience;
  event.stage = 2;
  event.cost = 80.0;
  event.best = 72.0;
  std::string out;
  append_jsonl(event, out);
  EXPECT_EQ(out,
            "{\"event\":\"stage_begin\",\"run\":0,\"restart\":0,\"worker\":0,"
            "\"tick\":0,\"stage\":2,\"cost\":80,\"best\":72,"
            "\"reason\":\"patience\"}\n");
}

TEST(EventTest, JsonlDoublesRoundTrip) {
  Event event;
  event.cost = 0.1;  // not exactly representable; %.17g must round-trip
  event.best = 1.0 / 3.0;
  std::string out;
  append_jsonl(event, out);
  EXPECT_NE(out.find("0.10000000000000001"), std::string::npos) << out;
}

// ---- The encoder against a printf reference --------------------------------

constexpr EventKind kAllKinds[] = {
#define MCOPT_EVENT_KIND(id, wire_name, deterministic) EventKind::id,
#include "obs/schema.def"
};

constexpr StageReason kAllReasons[] = {
#define MCOPT_STAGE_REASON(id, wire_name, on_stage_begin) StageReason::id,
#include "obs/schema.def"
};

/// The line as one snprintf with %llu and %.17g formats it: the encoder
/// must reproduce these bytes for every event.
std::string reference_jsonl(const Event& event) {
  const bool staged = event.kind == EventKind::kStageBegin;
  char buf[512];
  const int n = std::snprintf(
      buf, sizeof buf,
      "{\"event\":\"%s\",\"run\":%llu,\"restart\":%llu,\"worker\":%llu,"
      "\"tick\":%llu,\"stage\":%llu,\"cost\":%.17g,\"best\":%.17g%s%s%s}\n",
      event_kind_name(event.kind), static_cast<unsigned long long>(event.run),
      static_cast<unsigned long long>(event.restart),
      static_cast<unsigned long long>(event.worker),
      static_cast<unsigned long long>(event.tick),
      static_cast<unsigned long long>(event.stage), event.cost, event.best,
      staged ? ",\"reason\":\"" : "",
      staged ? stage_reason_name(event.reason) : "", staged ? "\"" : "");
  return std::string(buf, static_cast<std::size_t>(n));
}

std::string encoded(const Event& event) {
  char buf[kJsonlLineCap];
  return std::string(buf, format_jsonl(event, buf, sizeof buf));
}

/// Integral and non-integral costs on both sides of every branch of the
/// integer fast path.
std::vector<double> edge_doubles() {
  constexpr double kTwo53 = 9007199254740992.0;
  return {0.0,
          -0.0,
          1.0,
          -1.0,
          71.0,
          -4254.0,
          kTwo53,
          -kTwo53,
          kTwo53 - 1.0,
          kTwo53 + 2.0,
          -(kTwo53 + 2.0),
          9223372036854775808.0,  // 2^63
          -9223372036854775808.0,
          1e17,
          1e300,
          68.5,
          0.1,
          1.0 / 3.0,
          -2.5e-7,
          std::numeric_limits<double>::denorm_min(),
          DBL_MIN,
          DBL_MAX,
          -DBL_MAX,
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN(),
          -std::numeric_limits<double>::quiet_NaN()};
}

TEST(JsonlEncoderTest, MatchesPrintfForEveryKindAndReason) {
  for (const EventKind kind : kAllKinds) {
    for (const StageReason reason : kAllReasons) {
      Event event;
      event.kind = kind;
      event.reason = reason;
      event.run = 3;
      event.restart = 14;
      event.worker = 2;
      event.tick = 1234;
      event.stage = 5;
      event.cost = 71.0;
      event.best = 68.5;
      EXPECT_EQ(encoded(event), reference_jsonl(event))
          << event_kind_name(kind) << " / " << stage_reason_name(reason);
    }
  }
}

TEST(JsonlEncoderTest, MatchesPrintfOnEdgeDoubles) {
  const std::vector<double> values = edge_doubles();
  for (const double cost : values) {
    for (const double best : values) {
      Event event;
      event.kind = EventKind::kAccept;
      event.cost = cost;
      event.best = best;
      EXPECT_EQ(encoded(event), reference_jsonl(event));
    }
  }
}

TEST(JsonlEncoderTest, PrintsIntegralCostsAsIntegers) {
  Event event;
  event.cost = -0.0;
  event.best = 9007199254740992.0;  // 2^53
  const std::string line = encoded(event);
  EXPECT_NE(line.find("\"cost\":-0,"), std::string::npos) << line;
  EXPECT_NE(line.find("\"best\":9007199254740992}"), std::string::npos)
      << line;
  event.cost = 9007199254740994.0;  // 2^53 + 2: the printf path
  event.best = 1e17;
  EXPECT_EQ(encoded(event), reference_jsonl(event));
  EXPECT_NE(encoded(event).find("\"best\":1e+17}"), std::string::npos);
}

TEST(JsonlEncoderTest, MatchesPrintfOnExtremeIntegers) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (const std::uint64_t value : {std::uint64_t{0}, std::uint64_t{9},
                                    std::uint64_t{10}, kMax - 1, kMax}) {
    Event event;
    event.kind = EventKind::kNewBest;
    event.run = value;
    event.restart = value;
    event.worker = value;
    event.tick = value;
    event.stage = std::numeric_limits<std::uint32_t>::max();
    EXPECT_EQ(encoded(event), reference_jsonl(event)) << value;
  }
}

/// Every field at its widest: the longest line the encoder can produce.
Event widest_event(EventKind kind, StageReason reason) {
  Event event;
  event.kind = kind;
  event.reason = reason;
  event.run = event.restart = event.worker = event.tick =
      std::numeric_limits<std::uint64_t>::max();
  event.stage = std::numeric_limits<std::uint32_t>::max();
  event.cost = -DBL_MAX;
  event.best = -DBL_MAX;
  return event;
}

TEST(JsonlEncoderTest, LongestLineFitsTheLineCap) {
  static_assert(kJsonlLineCap == 256);
  for (const EventKind kind : kAllKinds) {
    for (const StageReason reason : kAllReasons) {
      const Event event = widest_event(kind, reason);
      const std::string want = reference_jsonl(event);
      ASSERT_LT(want.size(), kJsonlLineCap);  // the NUL fits as well
      EXPECT_EQ(encoded(event), want);
    }
  }
}

TEST(JsonlEncoderTest, CapBoundaryNeedsRoomForTheNul) {
  for (const Event& event :
       {widest_event(EventKind::kStageBegin, StageReason::kEquilibrium),
        make_event(EventKind::kAccept, 7)}) {
    const std::string want = reference_jsonl(event);
    const std::size_t n = want.size();
    std::vector<char> buf(n + 1, '#');
    EXPECT_EQ(format_jsonl(event, buf.data(), n), 0u);
    EXPECT_EQ(format_jsonl(event, buf.data(), n + 1), n);
    EXPECT_EQ(std::string(buf.data(), n), want);
    EXPECT_EQ(buf[n], '\0');
    EXPECT_EQ(format_jsonl(event, buf.data(), 0), 0u);
  }
}

TEST(VectorSinkTest, CollectsAndTakes) {
  VectorSink sink;
  sink.write(make_event(EventKind::kProposal, 1));
  sink.write(make_event(EventKind::kAccept, 2));
  ASSERT_EQ(sink.events().size(), 2u);
  const auto taken = sink.take();
  EXPECT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[1].tick, 2u);
  EXPECT_TRUE(sink.events().empty());
}

TEST(RingBufferSinkTest, RejectsZeroCapacity) {
  EXPECT_THROW(RingBufferSink{0}, std::invalid_argument);
}

TEST(RingBufferSinkTest, KeepsMostRecentOldestFirst) {
  RingBufferSink sink{3};
  for (std::uint64_t tick = 1; tick <= 5; ++tick) {
    sink.write(make_event(EventKind::kProposal, tick));
  }
  EXPECT_EQ(sink.size(), 3u);
  EXPECT_EQ(sink.dropped(), 2u);
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].tick, 3u);
  EXPECT_EQ(events[1].tick, 4u);
  EXPECT_EQ(events[2].tick, 5u);
}

TEST(RingBufferSinkTest, PartialFillSnapshotsInOrder) {
  RingBufferSink sink{8};
  sink.write(make_event(EventKind::kProposal, 10));
  sink.write(make_event(EventKind::kProposal, 11));
  EXPECT_EQ(sink.dropped(), 0u);
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].tick, 10u);
  EXPECT_EQ(events[1].tick, 11u);
}

TEST(JsonlFileSinkTest, WritesOneLinePerEventOnFlush) {
  std::ostringstream out;
  JsonlFileSink sink{out};
  sink.write(make_event(EventKind::kProposal, 1));
  sink.write(make_event(EventKind::kReject, 2));
  sink.flush();
  EXPECT_EQ(sink.written(), 2u);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"proposal_sampled\""), std::string::npos);
  EXPECT_NE(text.find("\"reject\""), std::string::npos);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
}

TEST(JsonlFileSinkTest, DestructorFlushes) {
  std::ostringstream out;
  {
    JsonlFileSink sink{out};
    sink.write(make_event(EventKind::kNewBest, 7));
  }
  EXPECT_NE(out.str().find("\"new_best\""), std::string::npos);
}

TEST(JsonlFileSinkTest, ReportsAFailedFlush) {
  std::ostringstream good;
  JsonlFileSink healthy{good};
  healthy.write(make_event(EventKind::kAccept, 1));
  healthy.flush();
  EXPECT_FALSE(healthy.failed());

  std::ostream broken{nullptr};  // no buffer: every write fails
  JsonlFileSink sink{broken};
  sink.write(make_event(EventKind::kAccept, 1));  // buffered, does not throw
  EXPECT_FALSE(sink.failed());
  sink.flush();
  EXPECT_TRUE(sink.failed());
  sink.flush();  // sticky
  EXPECT_TRUE(sink.failed());
  EXPECT_EQ(sink.written(), 1u);
}

TEST(JsonlFileSinkTest, BadPathThrows) {
  EXPECT_THROW(JsonlFileSink{"/nonexistent-dir-for-mcopt/trace.jsonl"},
               std::invalid_argument);
}

}  // namespace
}  // namespace mcopt::obs
