// Trace conservation: every request the broker answers leaves exactly one
// terminal event in the flight recorder, and the kTotal histogram counts one
// sample per terminal. Drives a real core::ServiceBroker through every
// outcome class — completion, cache hit, admission drop, deadline shed,
// retry — and audits the recorded story.
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

TEST(TraceConservation, EveryAnswerLeavesExactlyOneTerminalEvent) {
  BrokerConfig cfg;
  cfg.rules = QosRules{3, 3.0};  // class 1 admission bound = 1
  cfg.enable_cache = true;
  cfg.serve_stale_on_drop = false;
  cfg.lifecycle.max_attempts = 2;
  ServiceBroker broker("obs-test", cfg);
  auto backend = std::make_shared<FakeBackend>();
  broker.add_backend(backend);
  Capture cap;

  // Outcome 1: plain completion.
  broker.submit(0.0, make_request(1, 3, "q"), cap.fn());
  ASSERT_EQ(backend->invocations.size(), 1u);
  // Outcome 2: admission drop — class 1 sees outstanding 1 >= bound 1.
  broker.submit(0.0, make_request(2, 1, "drop-me"), cap.fn());
  backend->complete(0, 0.5);
  // Outcome 3: cache hit on the completed result.
  broker.submit(1.0, make_request(3, 3, "q"), cap.fn());
  // Outcome 4: deadline shed — the backend never answers.
  broker.submit(2.0, make_request(4, 3, "never", /*deadline_ms=*/100), cap.fn());
  ASSERT_EQ(backend->invocations.size(), 2u);
  broker.tick(2.5);  // past 2.1: shed
  // Outcome 5: retry then completion.
  broker.submit(3.0, make_request(5, 2, "retry-q"), cap.fn());
  ASSERT_EQ(backend->invocations.size(), 3u);
  backend->complete(2, 3.1, /*ok=*/false);
  broker.tick(3.2);  // drain the scheduled retry
  ASSERT_EQ(backend->invocations.size(), 4u);
  backend->complete(3, 3.3);

  ASSERT_EQ(cap.replies.size(), 5u);

  // Audit the flight recorder.
  const BrokerObserver& obs = broker.observer();
  std::map<uint64_t, std::vector<TraceEvent>> story;
  for (const TraceEvent& e : obs.recorder().dump()) {
    story[e.request_id].push_back(e);
  }
  ASSERT_EQ(story.size(), 5u);

  std::map<uint64_t, int> admits, terminals;
  for (const auto& [id, events] : story) {
    for (const TraceEvent& e : events) {
      if (e.kind == TraceEventKind::kAdmit) admits[id] += 1;
      if (trace_event_terminal(e.kind)) terminals[id] += 1;
    }
    // Conservation: one terminal event per request, and it comes last.
    EXPECT_EQ(terminals[id], 1) << "request " << id;
    EXPECT_TRUE(trace_event_terminal(events.back().kind)) << "request " << id;
  }
  // Admitted requests (contexts opened): 1, 4, 5. Cache hit (3) and
  // admission drop (2) terminate without an admit event.
  EXPECT_EQ(admits[1], 1);
  EXPECT_EQ(admits[4], 1);
  EXPECT_EQ(admits[5], 1);
  EXPECT_EQ(admits.count(2), 0u);
  EXPECT_EQ(admits.count(3), 0u);

  auto last_kind = [&](uint64_t id) { return story[id].back().kind; };
  EXPECT_EQ(last_kind(1), TraceEventKind::kComplete);
  EXPECT_EQ(last_kind(2), TraceEventKind::kDrop);
  EXPECT_EQ(last_kind(3), TraceEventKind::kCacheHit);
  EXPECT_EQ(last_kind(4), TraceEventKind::kDeadline);
  EXPECT_EQ(last_kind(5), TraceEventKind::kComplete);

  // Request 5's story includes the retry, before the completion.
  bool saw_retry = false;
  for (const TraceEvent& e : story[5]) {
    if (e.kind == TraceEventKind::kRetry) saw_retry = true;
  }
  EXPECT_TRUE(saw_retry);

  // Histogram conservation: one kTotal sample per answer the broker gave.
  EXPECT_EQ(obs.merged_histogram(Stage::kTotal).count(), 5u);
  // One first-dispatch queue-wait sample per admitted request (the retry
  // re-dispatch of 5 is deliberately not re-counted).
  EXPECT_EQ(obs.merged_histogram(Stage::kQueueWait).count(), 3u);
  // Batch-wait: every admitted request joined exactly one cluster batch.
  EXPECT_EQ(obs.merged_histogram(Stage::kBatchWait).count(), 3u);
  // Channel RTT: resolved exchange members — 1 (ok), 5 (failed + ok). The
  // harvested exchange of 4 never resolved.
  EXPECT_EQ(obs.merged_histogram(Stage::kChannelRtt).count(), 3u);

  // The per-class view partitions the totals: class 3 saw requests 1, 3, 4;
  // class 1 the admission drop; class 2 the retry.
  EXPECT_EQ(obs.histogram(3, Stage::kTotal).count(), 3u);
  EXPECT_EQ(obs.histogram(1, Stage::kTotal).count(), 1u);
  EXPECT_EQ(obs.histogram(2, Stage::kTotal).count(), 1u);

  // Total latency of request 1 (submit 0.0 -> reply 0.5) is in the class-3
  // distribution; 0.5s must be within the error bound of some recorded
  // sample, and the class max is the deadline shed at 2.0 -> shed tick.
  EXPECT_GT(obs.histogram(3, Stage::kTotal).max_seconds(), 0.49);
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
