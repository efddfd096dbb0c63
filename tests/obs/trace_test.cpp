// FlightRecorder: ring wraparound, dump ordering, disabled mode.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace sbroker::obs {
namespace {

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(1).capacity(), 1u);
  EXPECT_EQ(FlightRecorder(2).capacity(), 2u);
  EXPECT_EQ(FlightRecorder(3).capacity(), 4u);
  EXPECT_EQ(FlightRecorder(100).capacity(), 128u);
  EXPECT_EQ(FlightRecorder(4096).capacity(), 4096u);
}

TEST(FlightRecorder, ZeroCapacityDisablesRecording) {
  FlightRecorder rec(0);
  rec.record(1.0, 42, TraceEventKind::kAdmit, 1);
  EXPECT_EQ(rec.capacity(), 0u);
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_TRUE(rec.dump().empty());
}

TEST(FlightRecorder, DumpReturnsEventsOldestFirst) {
  FlightRecorder rec(8);
  for (uint64_t i = 0; i < 5; ++i) {
    rec.record(static_cast<double>(i), i, TraceEventKind::kAdmit,
               static_cast<uint8_t>(1 + i % 3), static_cast<uint16_t>(i));
  }
  auto events = rec.dump();
  ASSERT_EQ(events.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(events[i].request_id, i);
    EXPECT_EQ(events[i].seq, i);
    EXPECT_DOUBLE_EQ(events[i].t, static_cast<double>(i));
    EXPECT_EQ(events[i].detail, static_cast<uint16_t>(i));
  }
  EXPECT_EQ(rec.recorded(), 5u);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(FlightRecorder, WraparoundKeepsMostRecent) {
  FlightRecorder rec(8);
  for (uint64_t i = 0; i < 20; ++i) {
    rec.record(static_cast<double>(i), i, TraceEventKind::kDispatch, 1);
  }
  EXPECT_EQ(rec.recorded(), 20u);
  EXPECT_EQ(rec.dropped(), 12u);
  auto events = rec.dump();
  ASSERT_EQ(events.size(), 8u);
  // The surviving window is [12, 20), oldest first, seq strictly increasing.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].request_id, 12 + i);
    EXPECT_EQ(events[i].seq, 12 + i);
    if (i > 0) {
      EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
    }
  }
}

TEST(FlightRecorder, ClearResets) {
  FlightRecorder rec(4);
  rec.record(1.0, 1, TraceEventKind::kAdmit, 1);
  rec.record(2.0, 2, TraceEventKind::kComplete, 1);
  rec.clear();
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_TRUE(rec.dump().empty());
  rec.record(3.0, 3, TraceEventKind::kAdmit, 2);
  auto events = rec.dump();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].request_id, 3u);
}

TEST(TraceEventNames, KnownAndTerminalKinds) {
  EXPECT_STREQ(trace_event_name(TraceEventKind::kAdmit), "admit");
  EXPECT_STREQ(trace_event_name(TraceEventKind::kCacheHit), "cache_hit");
  EXPECT_STREQ(trace_event_name(TraceEventKind::kComplete), "complete");
  EXPECT_STREQ(trace_event_name(TraceEventKind::kDeadline), "deadline");

  EXPECT_FALSE(trace_event_terminal(TraceEventKind::kAdmit));
  EXPECT_FALSE(trace_event_terminal(TraceEventKind::kCluster));
  EXPECT_FALSE(trace_event_terminal(TraceEventKind::kDispatch));
  EXPECT_FALSE(trace_event_terminal(TraceEventKind::kRetry));
  EXPECT_TRUE(trace_event_terminal(TraceEventKind::kCacheHit));
  EXPECT_TRUE(trace_event_terminal(TraceEventKind::kDrop));
  EXPECT_TRUE(trace_event_terminal(TraceEventKind::kDeadline));
  EXPECT_TRUE(trace_event_terminal(TraceEventKind::kComplete));
}

}  // namespace
}  // namespace sbroker::obs
