// Trace conservation: every request the broker answers leaves exactly one
// terminal event in the flight recorder, and the kTotal histogram counts one
// sample per terminal. Drives a real core::ServiceBroker through every
// outcome — completion, error completion, cache hit, negative hit,
// stale-within-grace hit, admission drop (busy and stale copy), pool and
// deadline sheds, retry, coalesced waiters, a background refresh and the
// no-backend error — and audits the recorded story.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "core/broker.h"
#include "obs/observer.h"
#include "obs/trace.h"

namespace sbroker::obs {
namespace {

using core::Backend;
using core::BrokerConfig;
using core::QosRules;
using core::ServiceBroker;

/// Records invocations; the test completes them explicitly (or never).
class FakeBackend : public Backend {
 public:
  struct Invocation {
    std::string payload;
    Completion done;
  };

  void invoke(const Call& call, Completion done) override {
    invocations.push_back({call.payload, std::move(done)});
  }

  void complete(size_t i, double now, bool ok = true,
                std::string payload = "result") {
    Completion done = std::move(invocations.at(i).done);
    done(now, ok, std::move(payload));
  }

  std::vector<Invocation> invocations;
};

http::BrokerRequest make_request(uint64_t id, int level, std::string payload,
                                 uint32_t deadline_ms = 0) {
  http::BrokerRequest req;
  req.request_id = id;
  req.qos_level = static_cast<uint8_t>(level);
  req.payload = std::move(payload);
  req.deadline_ms = deadline_ms;
  return req;
}

struct Capture {
  std::vector<http::BrokerReply> replies;
  ServiceBroker::ReplyFn fn() {
    return [this](const http::BrokerReply& r) { replies.push_back(r); };
  }
};

using Story = std::map<uint64_t, std::vector<TraceEvent>>;

Story story_of(const BrokerObserver& obs) {
  Story story;
  for (const TraceEvent& e : obs.recorder().dump()) {
    story[e.request_id].push_back(e);
  }
  return story;
}

/// The oracle every broker must satisfy, whatever its inputs: each reply's
/// request has exactly one terminal event and it comes last; each class's
/// kTotal count equals its replies and its `completed` counter (a
/// background fetch, request id 0, adds neither).
void expect_conserved(const ServiceBroker& broker, const Capture& cap,
                      const std::map<uint64_t, int>& level_of) {
  ASSERT_EQ(broker.observer().recorder().dropped(), 0u);
  Story story = story_of(broker.observer());
  std::map<int, uint64_t> replies_per_level;
  for (const http::BrokerReply& r : cap.replies) {
    replies_per_level[level_of.at(r.request_id)] += 1;
    const std::vector<TraceEvent>& events = story[r.request_id];
    int terminals = 0;
    for (const TraceEvent& e : events) terminals += trace_event_terminal(e.kind);
    EXPECT_EQ(terminals, 1) << "request " << r.request_id;
    ASSERT_FALSE(events.empty()) << "request " << r.request_id;
    EXPECT_TRUE(trace_event_terminal(events.back().kind)) << "request " << r.request_id;
  }
  EXPECT_EQ(cap.replies.size(), level_of.size());  // one reply per request
  for (int level = 1; level <= 3; ++level) {
    uint64_t total = broker.observer().histogram(level, Stage::kTotal).count();
    EXPECT_EQ(total, replies_per_level[level]) << "class " << level;
    EXPECT_EQ(total, broker.metrics().at(level).completed) << "class " << level;
  }
}

TEST(TraceConservation, EveryAnswerLeavesExactlyOneTerminalEvent) {
  BrokerConfig cfg;
  cfg.rules = QosRules{3, 3.0};  // class 1 admission bound = 1
  cfg.enable_cache = true;
  cfg.serve_stale_on_drop = true;
  cfg.lifecycle.max_attempts = 2;
  cfg.cache_tuning.negative_ttl = 10.0;
  cfg.cache_tuning.swr_grace = 5.0;    // the default 5 s TTL, then 5 s of grace
  cfg.pool = core::PoolConfig{1, 1};   // a second exchange saturates the pool
  ServiceBroker broker("obs-test", cfg);
  auto backend = std::make_shared<FakeBackend>();
  broker.add_backend(backend);
  Capture cap;
  std::map<uint64_t, int> level_of;
  auto submit = [&](double now, uint64_t id, int level, std::string payload,
                    uint32_t deadline_ms = 0) {
    level_of[id] = level;
    broker.submit(now, make_request(id, level, std::move(payload), deadline_ms),
                  cap.fn());
  };

  // Outcome 1: plain completion.
  submit(0.0, 1, 3, "q");
  ASSERT_EQ(backend->invocations.size(), 1u);
  // Outcome 2: admission drop — class 1 sees outstanding 1 >= bound 1.
  submit(0.0, 2, 1, "drop-me");
  backend->complete(0, 0.5);
  // Outcome 3: cache hit on the completed result.
  submit(1.0, 3, 3, "q");
  // Outcome 4: deadline shed — the backend never answers.
  submit(2.0, 4, 3, "never", /*deadline_ms=*/100);
  ASSERT_EQ(backend->invocations.size(), 2u);
  broker.tick(2.5);  // past 2.1: shed
  // Outcome 5: retry then completion.
  submit(3.0, 5, 2, "retry-q");
  ASSERT_EQ(backend->invocations.size(), 3u);
  backend->complete(2, 3.1, /*ok=*/false);
  broker.tick(3.2);  // drain the scheduled retry
  ASSERT_EQ(backend->invocations.size(), 4u);
  backend->complete(3, 3.3);
  // Outcomes 6 and 7: an error completion after the retry budget, and the
  // coalesced waiter its failed flight answers.
  submit(4.0, 6, 3, "bad");
  submit(4.0, 7, 3, "bad");
  backend->complete(4, 4.1, /*ok=*/false);
  broker.tick(4.2);
  ASSERT_EQ(backend->invocations.size(), 6u);
  backend->complete(5, 4.3, /*ok=*/false, "boom");
  // Outcome 8: negative hit on the cached failure.
  submit(4.5, 8, 3, "bad");
  // Outcomes 9 and 10: completion, and a coalesced waiter its flight serves.
  submit(5.0, 9, 3, "shared");
  submit(5.0, 10, 2, "shared");
  ASSERT_EQ(backend->invocations.size(), 7u);
  backend->complete(6, 5.1, true, "shared-value");
  // Outcome 11: stale-within-grace hit ("q" expired at 5.5) that claims the
  // refresh; the background refresh completes with request id 0.
  submit(6.0, 11, 3, "q");
  ASSERT_EQ(backend->invocations.size(), 8u);
  EXPECT_EQ(backend->invocations[7].payload, "q");
  backend->complete(7, 6.1);
  // Outcomes 12-14 at 20.0, past "shared"'s grace: 12 holds the pool's only
  // slot; 13 (class 1) is admission-dropped and answered from "shared"'s
  // stale copy; 14 is admitted but shed on the saturated pool.
  submit(20.0, 12, 3, "hold");
  submit(20.0, 13, 1, "shared");
  submit(20.0, 14, 3, "other");
  ASSERT_EQ(backend->invocations.size(), 9u);
  backend->complete(8, 20.1);

  ASSERT_EQ(cap.replies.size(), 14u);
  std::map<uint64_t, http::BrokerReply> reply;
  for (const http::BrokerReply& r : cap.replies) reply[r.request_id] = r;
  EXPECT_EQ(reply[7].fidelity, http::Fidelity::kError);
  EXPECT_EQ(reply[8].fidelity, http::Fidelity::kError);
  EXPECT_EQ(reply[10].fidelity, http::Fidelity::kCached);
  EXPECT_EQ(reply[13].fidelity, http::Fidelity::kCached);
  EXPECT_EQ(reply[13].payload, "shared-value");
  EXPECT_EQ(reply[14].fidelity, http::Fidelity::kBusy);
  expect_conserved(broker, cap, level_of);

  // Audit the flight recorder.
  const BrokerObserver& obs = broker.observer();
  Story story = story_of(obs);
  ASSERT_EQ(story.size(), 15u);  // 14 requests + the background refresh (id 0)

  std::map<uint64_t, int> admits;
  for (const auto& [id, events] : story) {
    for (const TraceEvent& e : events) {
      if (e.kind == TraceEventKind::kAdmit) admits[id] += 1;
    }
  }
  // Admitted requests (contexts opened): 1, 4, 5. Cache hit (3) and
  // admission drop (2) terminate without an admit event.
  EXPECT_EQ(admits[1], 1);
  EXPECT_EQ(admits[4], 1);
  EXPECT_EQ(admits[5], 1);
  EXPECT_EQ(admits.count(2), 0u);
  EXPECT_EQ(admits.count(3), 0u);

  auto last = [&](uint64_t id) { return story[id].back(); };
  auto expect_last = [&](uint64_t id, TraceEventKind kind, uint16_t detail) {
    EXPECT_EQ(last(id).kind, kind) << "request " << id;
    EXPECT_EQ(last(id).detail, detail) << "request " << id;
  };
  auto fid = [](http::Fidelity f) { return static_cast<uint16_t>(f); };
  expect_last(1, TraceEventKind::kComplete, fid(http::Fidelity::kFull));
  expect_last(2, TraceEventKind::kDrop, 1);
  expect_last(3, TraceEventKind::kCacheHit, 0);
  expect_last(4, TraceEventKind::kDeadline, 1);
  expect_last(5, TraceEventKind::kComplete, fid(http::Fidelity::kFull));
  expect_last(6, TraceEventKind::kComplete, fid(http::Fidelity::kError));
  expect_last(7, TraceEventKind::kComplete, fid(http::Fidelity::kError));
  expect_last(8, TraceEventKind::kCacheHit, 2);
  expect_last(9, TraceEventKind::kComplete, fid(http::Fidelity::kFull));
  expect_last(10, TraceEventKind::kComplete, fid(http::Fidelity::kCached));
  expect_last(11, TraceEventKind::kCacheHit, 0);
  expect_last(12, TraceEventKind::kComplete, fid(http::Fidelity::kFull));
  expect_last(13, TraceEventKind::kDrop, 1);
  expect_last(14, TraceEventKind::kDrop, 2);
  expect_last(0, TraceEventKind::kComplete, fid(http::Fidelity::kFull));

  // Request 5's story includes the retry, before the completion; 7 and 10
  // parked on a flight; 11's grace hit is announced before its terminal.
  auto saw = [&](uint64_t id, TraceEventKind kind) {
    for (const TraceEvent& e : story[id]) {
      if (e.kind == kind) return true;
    }
    return false;
  };
  EXPECT_TRUE(saw(5, TraceEventKind::kRetry));
  EXPECT_TRUE(saw(7, TraceEventKind::kCoalesce));
  EXPECT_TRUE(saw(10, TraceEventKind::kCoalesce));
  ASSERT_EQ(story[11].size(), 2u);
  EXPECT_EQ(story[11][0].kind, TraceEventKind::kSwr);
  EXPECT_EQ(story[11][0].detail, 1);  // claimed the refresh
  EXPECT_EQ(broker.metrics().background.completed, 1u);

  // Histogram conservation: one kTotal sample per answer the broker gave.
  EXPECT_EQ(obs.merged_histogram(Stage::kTotal).count(), 14u);
  // One first-dispatch queue-wait sample per dispatched context (the retry
  // re-dispatches of 5 and 6 are deliberately not re-counted): 1, 4, 5, 6,
  // 9, the refresh and 12.
  EXPECT_EQ(obs.merged_histogram(Stage::kQueueWait).count(), 7u);
  // Batch-wait: every context that led its key joined exactly one cluster
  // batch: the seven above and 14, shed at dispatch.
  EXPECT_EQ(obs.merged_histogram(Stage::kBatchWait).count(), 8u);
  // Channel RTT: resolved exchange members — 1, 5 (failed + ok), 6 (failed
  // twice), 9, the refresh and 12. The harvested exchange of 4 never
  // resolved.
  EXPECT_EQ(obs.merged_histogram(Stage::kChannelRtt).count(), 8u);

  // The per-class view partitions the totals: class 3 saw 1, 3, 4, 6-9,
  // 11, 12 and 14; class 2 the retry and a waiter; class 1 the two drops.
  EXPECT_EQ(obs.histogram(3, Stage::kTotal).count(), 10u);
  EXPECT_EQ(obs.histogram(2, Stage::kTotal).count(), 2u);
  EXPECT_EQ(obs.histogram(1, Stage::kTotal).count(), 2u);

  // Total latency of request 1 (submit 0.0 -> reply 0.5) is in the class-3
  // distribution; 0.5s must be within the error bound of some recorded
  // sample, and the class max is the deadline shed at 2.0 -> shed tick.
  EXPECT_GT(obs.histogram(3, Stage::kTotal).max_seconds(), 0.49);

  // Outcome 15: no backend registered — an error completion, no context.
  ServiceBroker bare("obs-bare", cfg);
  Capture bare_cap;
  level_of = {{15, 2}};
  bare.submit(0.0, make_request(15, 2, "q"), bare_cap.fn());
  ASSERT_EQ(bare_cap.replies.size(), 1u);
  EXPECT_EQ(bare_cap.replies[0].fidelity, http::Fidelity::kError);
  expect_conserved(bare, bare_cap, level_of);
  Story bare_story = story_of(bare.observer());
  ASSERT_EQ(bare_story[15].size(), 1u);
  EXPECT_EQ(bare_story[15][0].kind, TraceEventKind::kComplete);
  EXPECT_EQ(bare_story[15][0].detail, fid(http::Fidelity::kError));
}

TEST(TraceConservation, TraceOffRecordsNoEventsButHistogramsCount) {
  BrokerConfig cfg;
  cfg.rules = QosRules{3, 20.0};
  cfg.obs.trace = false;
  ServiceBroker broker("obs-off", cfg);
  auto backend = std::make_shared<FakeBackend>();
  broker.add_backend(backend);
  Capture cap;
  broker.submit(0.0, make_request(1, 2, "q"), cap.fn());
  backend->complete(0, 0.25);
  ASSERT_EQ(cap.replies.size(), 1u);
  const BrokerObserver& obs = broker.observer();
  // Latency histograms always record: one kTotal sample per reply.
  EXPECT_EQ(obs.merged_histogram(Stage::kTotal).count(), 1u);
  EXPECT_EQ(obs.recorder().recorded(), 0u);
  EXPECT_EQ(obs.recorder().capacity(), 0u);
}

}  // namespace
}  // namespace sbroker::obs
