#include "core/broker.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace sbroker::core {
namespace {

/// `prefix` followed by `n` in decimal. Built by appending: GCC 12 at -O2
/// reports a false -Wrestrict overlap for `"k" + std::to_string(n)`.
std::string nth(const char* prefix, uint64_t n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

/// Records invocations; the test completes them explicitly.
class FakeBackend : public Backend {
 public:
  struct Invocation {
    std::string payload;
    bool setup = false;
    Completion done;
  };

  void invoke(const Call& call, Completion done) override {
    invocations.push_back({call.payload, call.needs_connection_setup, std::move(done)});
  }

  void complete(size_t i, double now, bool ok = true, std::string payload = "result") {
    Completion done = std::move(invocations.at(i).done);
    done(now, ok, std::move(payload));
  }

  std::vector<Invocation> invocations;
};

http::BrokerRequest make_request(uint64_t id, int level, std::string payload = "q") {
  http::BrokerRequest req;
  req.request_id = id;
  req.qos_level = static_cast<uint8_t>(level);
  req.payload = std::move(payload);
  return req;
}

struct Capture {
  std::vector<http::BrokerReply> replies;
  ServiceBroker::ReplyFn fn() {
    return [this](const http::BrokerReply& r) { replies.push_back(r); };
  }
};

BrokerConfig basic_config() {
  BrokerConfig cfg;
  cfg.rules = QosRules{3, 20.0};
  cfg.enable_cache = false;
  cfg.serve_stale_on_drop = false;
  return cfg;
}

TEST(Broker, ForwardsAndRepliesFullFidelity) {
  ServiceBroker broker("b", basic_config());
  auto backend = std::make_shared<FakeBackend>();
  broker.add_backend(backend);
  Capture cap;
  broker.submit(0.0, make_request(1, 3, "query"), cap.fn());
  ASSERT_EQ(backend->invocations.size(), 1u);
  EXPECT_EQ(backend->invocations[0].payload, "query");
  EXPECT_EQ(broker.outstanding(), 1u);
  backend->complete(0, 0.5);
  ASSERT_EQ(cap.replies.size(), 1u);
  EXPECT_EQ(cap.replies[0].request_id, 1u);
  EXPECT_EQ(cap.replies[0].fidelity, http::Fidelity::kFull);
  EXPECT_EQ(cap.replies[0].payload, "result");
  EXPECT_EQ(broker.outstanding(), 0u);
  EXPECT_DOUBLE_EQ(broker.observer().histogram(3, obs::Stage::kTotal).max_seconds(), 0.5);
}

TEST(Broker, NoBackendYieldsErrorReply) {
  ServiceBroker broker("b", basic_config());
  Capture cap;
  broker.submit(0.0, make_request(1, 3), cap.fn());
  ASSERT_EQ(cap.replies.size(), 1u);
  EXPECT_EQ(cap.replies[0].fidelity, http::Fidelity::kError);
  EXPECT_EQ(broker.metrics().at(3).errors, 1u);
}

TEST(Broker, DropsLowPriorityWhenOutstandingHigh) {
  BrokerConfig cfg = basic_config();
  cfg.rules = QosRules{3, 3.0};  // class 1 bound = 1
  ServiceBroker broker("b", cfg);
  auto backend = std::make_shared<FakeBackend>();
  broker.add_backend(backend);
  Capture keep, drop;
  broker.submit(0.0, make_request(1, 3), keep.fn());  // outstanding 0 -> forward
  broker.submit(0.0, make_request(2, 1), drop.fn());  // outstanding 1 >= bound 1
  ASSERT_EQ(drop.replies.size(), 1u);
  EXPECT_EQ(drop.replies[0].fidelity, http::Fidelity::kBusy);
  EXPECT_EQ(broker.metrics().at(1).dropped, 1u);
  EXPECT_TRUE(keep.replies.empty());
}

TEST(Broker, ServesStaleCacheOnDrop) {
  BrokerConfig cfg = basic_config();
  cfg.enable_cache = true;
  cfg.cache_ttl = 0.1;
  cfg.serve_stale_on_drop = true;
  cfg.rules = QosRules{3, 1.0};
  ServiceBroker broker("b", cfg);
  auto backend = std::make_shared<FakeBackend>();
  broker.add_backend(backend);
  Capture first;
  broker.submit(0.0, make_request(1, 3, "k"), first.fn());
  backend->complete(0, 0.01, true, "fresh-result");
  // Entry now expired; saturate then ask again at low priority.
  Capture hold, degraded;
  broker.submit(10.0, make_request(2, 3, "other"), hold.fn());
  broker.submit(10.0, make_request(3, 1, "k"), degraded.fn());
  ASSERT_EQ(degraded.replies.size(), 1u);
  EXPECT_EQ(degraded.replies[0].fidelity, http::Fidelity::kCached);
  EXPECT_EQ(degraded.replies[0].payload, "fresh-result");
}

TEST(Broker, CacheHitSkipsBackend) {
  BrokerConfig cfg = basic_config();
  cfg.enable_cache = true;
  cfg.cache_ttl = 100.0;
  ServiceBroker broker("b", cfg);
  auto backend = std::make_shared<FakeBackend>();
  broker.add_backend(backend);
  Capture miss, hit;
  broker.submit(0.0, make_request(1, 2, "k"), miss.fn());
  backend->complete(0, 0.1, true, "value");
  broker.submit(1.0, make_request(2, 2, "k"), hit.fn());
  EXPECT_EQ(backend->invocations.size(), 1u);  // no second backend call
  ASSERT_EQ(hit.replies.size(), 1u);
  EXPECT_EQ(hit.replies[0].fidelity, http::Fidelity::kCached);
  EXPECT_EQ(hit.replies[0].payload, "value");
  EXPECT_EQ(broker.metrics().at(2).cache_hits, 1u);
}

TEST(Broker, CacheHitReplyMaySubmitAnotherHitReentrantly) {
  // submit() probes into an arena of its own call, so a submit made from
  // inside a hit reply probes into another and neither reply sees the other
  // request's payload.
  BrokerConfig cfg = basic_config();
  cfg.enable_cache = true;
  cfg.cache_ttl = 100.0;
  ServiceBroker broker("b", cfg);
  auto backend = std::make_shared<FakeBackend>();
  broker.add_backend(backend);
  broker.cache().put("outer", "outer-value", 0.0);
  broker.cache().put("inner", "inner-value", 0.0);
  Capture outer, inner;
  broker.submit(1.0, make_request(1, 2, "outer"), [&](const http::BrokerReply& r) {
    broker.submit(1.0, make_request(2, 2, "inner"), inner.fn());
    outer.replies.push_back(r);
  });
  EXPECT_TRUE(backend->invocations.empty());
  ASSERT_EQ(outer.replies.size(), 1u);
  ASSERT_EQ(inner.replies.size(), 1u);
  EXPECT_EQ(outer.replies[0].request_id, 1u);
  EXPECT_EQ(outer.replies[0].fidelity, http::Fidelity::kCached);
  EXPECT_EQ(outer.replies[0].payload, "outer-value");
  EXPECT_EQ(inner.replies[0].request_id, 2u);
  EXPECT_EQ(inner.replies[0].fidelity, http::Fidelity::kCached);
  EXPECT_EQ(inner.replies[0].payload, "inner-value");
  EXPECT_EQ(broker.metrics().at(2).issued, 2u);
  EXPECT_EQ(broker.metrics().at(2).completed, 2u);
  EXPECT_EQ(broker.metrics().at(2).cache_hits, 2u);
}

TEST(Broker, ClusteringBatchesAndSplits) {
  BrokerConfig cfg = basic_config();
  cfg.cluster = ClusterConfig{3, 10.0};
  ServiceBroker broker("b", cfg);
  auto backend = std::make_shared<FakeBackend>();
  broker.add_backend(backend);
  Capture c1, c2, c3;
  broker.submit(0.0, make_request(1, 2, "a"), c1.fn());
  broker.submit(0.0, make_request(2, 2, "b"), c2.fn());
  EXPECT_TRUE(backend->invocations.empty());
  EXPECT_EQ(broker.outstanding(), 2u);
  broker.submit(0.0, make_request(3, 2, "c"), c3.fn());
  ASSERT_EQ(backend->invocations.size(), 1u);
  std::string sep(1, kRecordSep);
  EXPECT_EQ(backend->invocations[0].payload, "a" + sep + "b" + sep + "c");
  backend->complete(0, 1.0, true, "ra" + sep + "rb" + sep + "rc");
  ASSERT_EQ(c1.replies.size(), 1u);
  EXPECT_EQ(c1.replies[0].payload, "ra");
  EXPECT_EQ(c2.replies[0].payload, "rb");
  EXPECT_EQ(c3.replies[0].payload, "rc");
  EXPECT_EQ(broker.outstanding(), 0u);
}

TEST(Broker, TickFlushesPartialBatchAfterDeadline) {
  BrokerConfig cfg = basic_config();
  cfg.cluster = ClusterConfig{10, 0.05};
  ServiceBroker broker("b", cfg);
  auto backend = std::make_shared<FakeBackend>();
  broker.add_backend(backend);
  Capture cap;
  broker.submit(0.0, make_request(1, 2, "solo"), cap.fn());
  EXPECT_TRUE(backend->invocations.empty());
  ASSERT_TRUE(broker.next_deadline().has_value());
  EXPECT_DOUBLE_EQ(*broker.next_deadline(), 0.05);
  broker.tick(0.04);
  EXPECT_TRUE(backend->invocations.empty());
  broker.tick(0.05);
  ASSERT_EQ(backend->invocations.size(), 1u);
  backend->complete(0, 0.1);
  EXPECT_EQ(cap.replies.size(), 1u);
}

TEST(Broker, BackendErrorPropagatesToAllBatchMembers) {
  BrokerConfig cfg = basic_config();
  cfg.cluster = ClusterConfig{2, 10.0};
  ServiceBroker broker("b", cfg);
  auto backend = std::make_shared<FakeBackend>();
  broker.add_backend(backend);
  Capture c1, c2;
  broker.submit(0.0, make_request(1, 2, "a"), c1.fn());
  broker.submit(0.0, make_request(2, 2, "b"), c2.fn());
  backend->complete(0, 1.0, false, "boom");
  ASSERT_EQ(c1.replies.size(), 1u);
  EXPECT_EQ(c1.replies[0].fidelity, http::Fidelity::kError);
  EXPECT_EQ(c2.replies[0].fidelity, http::Fidelity::kError);
  EXPECT_EQ(broker.metrics().at(2).errors, 2u);
}

TEST(Broker, DispatchWindowQueuesByPriority) {
  BrokerConfig cfg = basic_config();
  cfg.dispatch_window = 1;
  ServiceBroker broker("b", cfg);
  auto backend = std::make_shared<FakeBackend>();
  broker.add_backend(backend);
  Capture a, b, c;
  broker.submit(0.0, make_request(1, 1, "first"), a.fn());   // dispatches
  broker.submit(0.0, make_request(2, 1, "low"), b.fn());     // queued
  broker.submit(0.0, make_request(3, 3, "high"), c.fn());    // queued, higher
  ASSERT_EQ(backend->invocations.size(), 1u);
  backend->complete(0, 0.1);
  // High-priority queued batch dispatches before the earlier low one.
  ASSERT_EQ(backend->invocations.size(), 2u);
  EXPECT_EQ(backend->invocations[1].payload, "high");
  backend->complete(1, 0.2);
  ASSERT_EQ(backend->invocations.size(), 3u);
  EXPECT_EQ(backend->invocations[2].payload, "low");
}

TEST(Broker, TxnStepEscalationBeatsAdmissionCut) {
  BrokerConfig cfg = basic_config();
  cfg.rules = QosRules{3, 3.0};  // class1 bound 1, class3 bound 3
  ServiceBroker broker("b", cfg);
  auto backend = std::make_shared<FakeBackend>();
  broker.add_backend(backend);
  Capture hold, fresh, deep;
  broker.submit(0.0, make_request(1, 3, "x"), hold.fn());  // outstanding -> 1

  // Step-1 class-1 access: bound 1, outstanding 1 -> dropped.
  http::BrokerRequest step1 = make_request(2, 1, "step1");
  step1.txn_id = 50;
  step1.txn_step = 1;
  broker.submit(0.0, step1, fresh.fn());
  ASSERT_EQ(fresh.replies.size(), 1u);
  EXPECT_EQ(fresh.replies[0].fidelity, http::Fidelity::kBusy);

  // Step-3 class-1 access of another transaction: escalated to class 3.
  http::BrokerRequest step3 = make_request(3, 1, "step3");
  step3.txn_id = 51;
  step3.txn_step = 3;
  broker.submit(0.0, step3, deep.fn());
  EXPECT_TRUE(deep.replies.empty());  // forwarded, not dropped
  EXPECT_EQ(backend->invocations.size(), 2u);
}

TEST(Broker, PoolSaturationDegradesBatch) {
  BrokerConfig cfg = basic_config();
  cfg.pool = PoolConfig{1, 1, true};  // one connection, one in-flight slot
  ServiceBroker broker("b", cfg);
  auto backend = std::make_shared<FakeBackend>();
  broker.add_backend(backend);
  Capture a, b;
  broker.submit(0.0, make_request(1, 3, "x"), a.fn());
  broker.submit(0.0, make_request(2, 3, "y"), b.fn());
  ASSERT_EQ(backend->invocations.size(), 1u);  // second had no channel
  ASSERT_EQ(b.replies.size(), 1u);
  EXPECT_EQ(b.replies[0].fidelity, http::Fidelity::kBusy);
  EXPECT_EQ(broker.metrics().at(3).dropped, 1u);
  backend->complete(0, 0.1);
  EXPECT_EQ(a.replies.size(), 1u);
}

TEST(Broker, ConnectionSetupHintFollowsPoolState) {
  BrokerConfig cfg = basic_config();
  cfg.pool = PoolConfig{4, 64, true};
  ServiceBroker broker("b", cfg);
  auto backend = std::make_shared<FakeBackend>();
  broker.add_backend(backend);
  Capture cap;
  broker.submit(0.0, make_request(1, 3, "x"), cap.fn());
  EXPECT_TRUE(backend->invocations[0].setup);  // pool was empty
  backend->complete(0, 0.1);
  broker.submit(1.0, make_request(2, 3, "y"), cap.fn());
  EXPECT_FALSE(backend->invocations[1].setup);  // persistent connection kept
}

TEST(Broker, PrefetchPopulatesCacheViaTick) {
  BrokerConfig cfg = basic_config();
  cfg.enable_cache = true;
  cfg.cache_ttl = 100.0;
  ServiceBroker broker("b", cfg);
  auto backend = std::make_shared<FakeBackend>();
  broker.add_backend(backend);
  broker.prefetcher().add("GET /headlines", 60.0);
  broker.tick(0.0);
  ASSERT_EQ(backend->invocations.size(), 1u);
  EXPECT_EQ(backend->invocations[0].payload, "GET /headlines");
  backend->complete(0, 0.2, true, "today's news");
  Capture cap;
  broker.submit(1.0, make_request(1, 2, "GET /headlines"), cap.fn());
  ASSERT_EQ(cap.replies.size(), 1u);
  EXPECT_EQ(cap.replies[0].fidelity, http::Fidelity::kCached);
  EXPECT_EQ(cap.replies[0].payload, "today's news");
  EXPECT_EQ(backend->invocations.size(), 1u);  // served without backend touch
}

TEST(Broker, PrefetchSkippedWhenBusy) {
  BrokerConfig cfg = basic_config();
  cfg.rules = QosRules{3, 3.0};  // class-1 bound 1: the prefetch gate
  ServiceBroker broker("b", cfg);
  auto backend = std::make_shared<FakeBackend>();
  broker.add_backend(backend);
  broker.prefetcher().add("q", 60.0);
  Capture cap;
  broker.submit(0.0, make_request(1, 3, "work"), cap.fn());  // outstanding = 1
  broker.tick(0.0);
  EXPECT_EQ(backend->invocations.size(), 1u);  // only the real request
}

TEST(Broker, BackgroundFetchesAtTheClassOneBoundDropLowestClassDemand) {
  // Background fetches count in the outstanding load: two prefetches in
  // flight hold the class-1 bound (threshold 6 over 3 levels = 2), so a
  // class-1 demand miss is dropped until one of them lands.
  BrokerConfig cfg = basic_config();
  cfg.enable_cache = true;
  cfg.rules = QosRules{3, 6.0};
  ServiceBroker broker("b", cfg);
  auto backend = std::make_shared<FakeBackend>();
  broker.add_backend(backend);
  for (int i = 0; i < 3; ++i) broker.prefetcher().add(nth("pre", i), 60.0);
  broker.tick(0.0);
  ASSERT_EQ(backend->invocations.size(), 2u);  // the third waits for the gate
  EXPECT_EQ(broker.outstanding(), 2u);
  EXPECT_EQ(broker.load_tracker().load(), 2.0);

  Capture low;
  broker.submit(0.1, make_request(1, 1, "demand"), low.fn());
  ASSERT_EQ(low.replies.size(), 1u);
  EXPECT_EQ(low.replies[0].fidelity, http::Fidelity::kBusy);
  EXPECT_EQ(broker.metrics().at(1).dropped, 1u);

  backend->complete(0, 0.2);
  Capture admitted;
  broker.submit(0.3, make_request(2, 1, "demand"), admitted.fn());
  EXPECT_EQ(backend->invocations.size(), 3u);
  EXPECT_TRUE(admitted.replies.empty());
  EXPECT_EQ(broker.metrics().background.issued, 2u);
  EXPECT_EQ(broker.metrics().background.completed, 1u);
}

TEST(Broker, DuplicateInFlightIdsEachGetOneReply) {
  // Clients choose their own request ids; two in flight at once with the
  // same id are still two requests, each answered once, and neither leaks
  // a context or a load unit.
  ServiceBroker broker("b", basic_config());
  auto backend = std::make_shared<FakeBackend>();
  broker.add_backend(backend);
  Capture a, b;
  broker.submit(0.0, make_request(7, 3, "/a"), a.fn());
  broker.submit(0.0, make_request(7, 3, "/b"), b.fn());
  ASSERT_EQ(backend->invocations.size(), 2u);
  EXPECT_EQ(broker.outstanding(), 2u);
  backend->complete(0, 0.1, true, "for a");
  backend->complete(1, 0.2, true, "for b");
  for (int t = 1; t <= 100; ++t) broker.tick(t);
  ASSERT_EQ(a.replies.size(), 1u);
  EXPECT_EQ(a.replies[0].request_id, 7u);
  EXPECT_EQ(a.replies[0].payload, "for a");
  ASSERT_EQ(b.replies.size(), 1u);
  EXPECT_EQ(b.replies[0].request_id, 7u);
  EXPECT_EQ(b.replies[0].payload, "for b");
  EXPECT_EQ(broker.outstanding(), 0u);
  EXPECT_EQ(broker.load_tracker().load(), 0.0);
}

TEST(Broker, SharedTransactionsEscalateAcrossBrokers) {
  // Brokers that exchange state (a shared tracker) protect transactions
  // spanning different backend services.
  BrokerConfig cfg = basic_config();
  cfg.rules = QosRules{3, 3.0};  // class1 bound 1
  ServiceBroker broker_a("vendor-a", cfg);
  ServiceBroker broker_b("vendor-b", cfg);
  auto backend_a = std::make_shared<FakeBackend>();
  auto backend_b = std::make_shared<FakeBackend>();
  broker_a.add_backend(backend_a);
  broker_b.add_backend(backend_b);
  auto shared = std::make_shared<TransactionTracker>(cfg.rules, cfg.txn);
  broker_a.share_transactions(shared);
  broker_b.share_transactions(shared);

  // Step 2 of txn 9 runs at broker A, raising the shared highest-step.
  http::BrokerRequest step2 = make_request(1, 1, "a-step");
  step2.txn_id = 9;
  step2.txn_step = 2;
  Capture a_cap;
  broker_a.submit(0.0, step2, a_cap.fn());
  backend_a->complete(0, 0.1);

  // Saturate broker B so a plain class-1 request is dropped...
  Capture hold, fresh, protected_cap;
  broker_b.submit(0.2, make_request(2, 3, "hold"), hold.fn());
  broker_b.submit(0.2, make_request(3, 1, "fresh"), fresh.fn());
  ASSERT_EQ(fresh.replies.size(), 1u);
  EXPECT_EQ(fresh.replies[0].fidelity, http::Fidelity::kBusy);

  // ...but the same class-1 request tagged as txn 9 is escalated by the
  // *shared* state (broker B never saw steps 1-2 itself).
  http::BrokerRequest protected_req = make_request(4, 1, "b-step");
  protected_req.txn_id = 9;
  protected_req.txn_step = 1;  // stale tag; shared highest-step is 2
  broker_b.submit(0.2, protected_req, protected_cap.fn());
  EXPECT_TRUE(protected_cap.replies.empty());  // forwarded, not dropped
  EXPECT_EQ(backend_b->invocations.size(), 2u);
}

TEST(Broker, UnsharedTrackersDoNotLeakState) {
  BrokerConfig cfg = basic_config();
  cfg.rules = QosRules{3, 3.0};
  ServiceBroker broker_a("a", cfg);
  ServiceBroker broker_b("b", cfg);
  auto backend_a = std::make_shared<FakeBackend>();
  auto backend_b = std::make_shared<FakeBackend>();
  broker_a.add_backend(backend_a);
  broker_b.add_backend(backend_b);

  http::BrokerRequest step3 = make_request(1, 1, "deep");
  step3.txn_id = 9;
  step3.txn_step = 3;
  Capture a_cap;
  broker_a.submit(0.0, step3, a_cap.fn());
  backend_a->complete(0, 0.1);

  // Broker B has its own tracker: the transaction is unknown there.
  EXPECT_EQ(broker_b.transactions().highest_step(9), 0);
  EXPECT_EQ(broker_a.transactions().highest_step(9), 3);
}

TEST(Broker, ConservationAcrossOutcomes) {
  BrokerConfig cfg = basic_config();
  cfg.enable_cache = true;
  cfg.cache_ttl = 1000.0;
  cfg.rules = QosRules{3, 2.0};
  ServiceBroker broker("b", cfg);
  auto backend = std::make_shared<FakeBackend>();
  broker.add_backend(backend);
  Capture cap;
  uint64_t id = 1;
  // Mix of forwards, drops, and cache hits.
  for (int round = 0; round < 20; ++round) {
    broker.submit(round, make_request(id++, 1 + round % 3, nth("p", round % 4)),
                  cap.fn());
    // Complete whatever is in flight every other round.
    if (round % 2 == 1) {
      for (auto& inv : backend->invocations) {
        if (inv.done) {
          auto done = std::move(inv.done);
          inv.done = nullptr;
          done(round + 0.5, true, "r");
        }
      }
    }
  }
  for (auto& inv : backend->invocations) {
    if (inv.done) {
      auto done = std::move(inv.done);
      inv.done = nullptr;
      done(100.0, true, "r");
    }
  }
  auto total = broker.metrics().total();
  EXPECT_EQ(total.issued, 20u);
  EXPECT_EQ(total.completed, 20u);
  EXPECT_EQ(total.forwarded + total.dropped + total.cache_hits + total.errors,
            total.issued);
  EXPECT_EQ(cap.replies.size(), 20u);
  EXPECT_EQ(broker.outstanding(), 0u);
}

// --------------------------------------------------------------------------
// Request lifecycle: deadlines, cancellation, retry budgets, replica health

/// FakeBackend that also records the broker's cancel token per invocation.
class TokenBackend : public Backend {
 public:
  struct Invocation {
    std::string payload;
    double timeout = 0.0;
    CancelTokenPtr token;
    Completion done;
  };

  void invoke(const Call& call, Completion done) override {
    invoke(call, nullptr, std::move(done));
  }
  void invoke(const Call& call, const CancelTokenPtr& token,
              Completion done) override {
    invocations.push_back({call.payload, call.timeout, token, std::move(done)});
  }

  void complete(size_t i, double now, bool ok = true, std::string payload = "result") {
    Completion done = std::move(invocations.at(i).done);
    done(now, ok, std::move(payload));
  }

  std::vector<Invocation> invocations;
};

http::BrokerRequest deadline_request(uint64_t id, int level, uint32_t deadline_ms,
                                     std::string payload = "q") {
  http::BrokerRequest req = make_request(id, level, std::move(payload));
  req.deadline_ms = deadline_ms;
  return req;
}

TEST(Lifecycle, DeadlineExpiryAnswersBusyExactlyOnce) {
  BrokerConfig cfg = basic_config();
  cfg.lifecycle.default_deadline = 0.1;
  ServiceBroker broker("b", cfg);
  auto backend = std::make_shared<TokenBackend>();
  broker.add_backend(backend);
  Capture cap;
  broker.submit(0.0, make_request(1, 3, "slow"), cap.fn());
  ASSERT_EQ(backend->invocations.size(), 1u);
  // Remaining deadline plus the transport slack: the channel's own timer
  // must stay behind the broker's deadline expiry.
  EXPECT_NEAR(backend->invocations[0].timeout,
              0.1 + kTransportSlack, 1e-9);
  EXPECT_TRUE(cap.replies.empty());
  ASSERT_TRUE(broker.next_deadline().has_value());
  EXPECT_NEAR(*broker.next_deadline(), 0.1, 1e-9);

  broker.tick(0.2);
  ASSERT_EQ(cap.replies.size(), 1u);
  EXPECT_EQ(cap.replies[0].fidelity, http::Fidelity::kBusy);
  EXPECT_EQ(cap.replies[0].payload, std::string(kDeadlineExceeded));
  EXPECT_EQ(broker.outstanding(), 0u);
  EXPECT_EQ(broker.load_tracker().outstanding(), 0);
  EXPECT_EQ(broker.metrics().at(3).dropped, 1u);
  EXPECT_EQ(broker.metrics().at(3).deadline_misses, 1u);
  EXPECT_EQ(broker.metrics().lifecycle.cancellations, 1u);
  ASSERT_TRUE(backend->invocations[0].token);
  EXPECT_TRUE(backend->invocations[0].token->cancelled());

  // The straggler completion after the shed is swallowed, not double-replied.
  backend->complete(0, 0.3);
  EXPECT_EQ(cap.replies.size(), 1u);
  EXPECT_EQ(broker.metrics().lifecycle.late_completions, 1u);
}

TEST(Lifecycle, DeadlineShedServesStaleCache) {
  BrokerConfig cfg = basic_config();
  cfg.enable_cache = true;
  cfg.cache_ttl = 0.05;
  cfg.serve_stale_on_drop = true;
  cfg.lifecycle.default_deadline = 0.1;
  ServiceBroker broker("b", cfg);
  auto backend = std::make_shared<TokenBackend>();
  broker.add_backend(backend);
  Capture first;
  broker.submit(0.0, make_request(1, 3, "k"), first.fn());
  backend->complete(0, 0.01, true, "old-copy");
  // Cache entry expired by now; the second request forwards, stalls, and the
  // deadline shed falls back to the stale copy at cached fidelity.
  Capture second;
  broker.submit(1.0, make_request(2, 3, "k"), second.fn());
  ASSERT_EQ(backend->invocations.size(), 2u);
  broker.tick(1.2);
  ASSERT_EQ(second.replies.size(), 1u);
  EXPECT_EQ(second.replies[0].fidelity, http::Fidelity::kCached);
  EXPECT_EQ(second.replies[0].payload, "old-copy");
  EXPECT_EQ(broker.metrics().at(3).deadline_misses, 1u);
}

TEST(Lifecycle, PerRequestDeadlineOverridesAndClamps) {
  BrokerConfig cfg = basic_config();
  cfg.lifecycle.default_deadline = 10.0;
  cfg.lifecycle.max_deadline = 0.5;
  ServiceBroker broker("b", cfg);
  auto backend = std::make_shared<TokenBackend>();
  broker.add_backend(backend);
  Capture a, b;
  broker.submit(0.0, deadline_request(1, 3, 200), a.fn());     // 0.2s explicit
  broker.submit(0.0, deadline_request(2, 3, 60000, "z"), b.fn());  // clamped
  ASSERT_TRUE(broker.next_deadline().has_value());
  EXPECT_NEAR(*broker.next_deadline(), 0.2, 1e-9);
  broker.tick(0.3);
  ASSERT_EQ(a.replies.size(), 1u);
  EXPECT_EQ(a.replies[0].fidelity, http::Fidelity::kBusy);
  EXPECT_TRUE(b.replies.empty());
  broker.tick(0.6);  // max_deadline clamp: 60s request dies at 0.5s
  ASSERT_EQ(b.replies.size(), 1u);
  EXPECT_EQ(broker.metrics().at(3).deadline_misses, 2u);
}

TEST(Lifecycle, RetryMovesToDifferentReplica) {
  BrokerConfig cfg = basic_config();
  cfg.lifecycle.max_attempts = 2;
  cfg.balance = BalancePolicy::kRoundRobin;
  ServiceBroker broker("b", cfg);
  auto first = std::make_shared<TokenBackend>();
  auto second = std::make_shared<TokenBackend>();
  broker.add_backend(first);
  broker.add_backend(second);
  bool woke = false;
  broker.set_wakeup([&]() { woke = true; });
  Capture cap;
  broker.submit(0.0, make_request(1, 3, "q"), cap.fn());
  ASSERT_EQ(first->invocations.size(), 1u);
  first->complete(0, 0.05, false, "replica down");
  // Failure scheduled a retry; the owner was told the schedule moved.
  EXPECT_TRUE(woke);
  EXPECT_TRUE(cap.replies.empty());
  ASSERT_TRUE(broker.next_deadline().has_value());
  broker.tick(*broker.next_deadline());
  // The retry avoided the replica that just failed.
  ASSERT_EQ(second->invocations.size(), 1u);
  EXPECT_EQ(first->invocations.size(), 1u);
  second->complete(0, 0.1, true, "recovered");
  ASSERT_EQ(cap.replies.size(), 1u);
  EXPECT_EQ(cap.replies[0].fidelity, http::Fidelity::kFull);
  EXPECT_EQ(cap.replies[0].payload, "recovered");
  EXPECT_EQ(broker.metrics().at(3).retries, 1u);
  EXPECT_EQ(broker.metrics().at(3).errors, 0u);
  EXPECT_EQ(broker.outstanding(), 0u);
}

TEST(Lifecycle, AttemptBudgetExhaustedYieldsError) {
  BrokerConfig cfg = basic_config();
  cfg.lifecycle.max_attempts = 2;
  ServiceBroker broker("b", cfg);
  auto backend = std::make_shared<TokenBackend>();
  broker.add_backend(backend);
  Capture cap;
  broker.submit(0.0, make_request(1, 3, "q"), cap.fn());
  backend->complete(0, 0.05, false, "boom");
  broker.tick(0.1);
  ASSERT_EQ(backend->invocations.size(), 2u);
  backend->complete(1, 0.15, false, "boom again");
  ASSERT_EQ(cap.replies.size(), 1u);
  EXPECT_EQ(cap.replies[0].fidelity, http::Fidelity::kError);
  EXPECT_EQ(broker.metrics().at(3).retries, 1u);
  EXPECT_EQ(broker.metrics().at(3).errors, 1u);
  EXPECT_EQ(broker.outstanding(), 0u);
}

TEST(Lifecycle, RetryNotScheduledPastDeadline) {
  BrokerConfig cfg = basic_config();
  cfg.lifecycle.max_attempts = 3;
  cfg.lifecycle.default_deadline = 0.1;
  ServiceBroker broker("b", cfg);
  auto backend = std::make_shared<TokenBackend>();
  broker.add_backend(backend);
  Capture cap;
  broker.submit(0.0, make_request(1, 3, "q"), cap.fn());
  // Fails so close to the deadline that the backoff alone overshoots it.
  backend->complete(0, 0.1 - kRetryBackoff / 2, false, "boom");
  // No budget left inside the deadline: fail now instead of retrying.
  ASSERT_EQ(cap.replies.size(), 1u);
  EXPECT_EQ(cap.replies[0].fidelity, http::Fidelity::kError);
  EXPECT_EQ(broker.metrics().at(3).retries, 0u);
}

TEST(Lifecycle, CompletionOutcomesDriveEjectionMetrics) {
  BrokerConfig cfg = basic_config();
  cfg.health = HealthConfig{2, 5.0};
  ServiceBroker broker("b", cfg);
  auto bad = std::make_shared<TokenBackend>();
  auto good = std::make_shared<TokenBackend>();
  broker.add_backend(bad);
  broker.add_backend(good);
  // Least-outstanding ties break toward replica 0, so both probes land on
  // the bad replica; two consecutive failures eject it.
  for (uint64_t id = 1; id <= 2; ++id) {
    Capture cap;
    broker.submit(0.1 * static_cast<double>(id), make_request(id, 3, nth("q", id)),
                  cap.fn());
    ASSERT_EQ(bad->invocations.size(), id);
    bad->complete(id - 1, 0.1 * static_cast<double>(id) + 0.01, false, "down");
  }
  EXPECT_EQ(broker.metrics().lifecycle.ejections, 1u);
  EXPECT_TRUE(broker.balancer().ejected(0));
  // Subsequent traffic flows to the healthy replica only.
  Capture cap;
  broker.submit(1.0, make_request(9, 3, "z"), cap.fn());
  EXPECT_EQ(bad->invocations.size(), 2u);
  ASSERT_EQ(good->invocations.size(), 1u);
  good->complete(0, 1.05, true, "ok");
  ASSERT_EQ(cap.replies.size(), 1u);
  EXPECT_EQ(cap.replies[0].fidelity, http::Fidelity::kFull);
}

TEST(Lifecycle, ProbeRefusedByASaturatedPoolIsIssuedAgain) {
  BrokerConfig cfg = basic_config();
  cfg.health = HealthConfig{1, 1.0};   // eject on the first failure, for 1 s
  cfg.pool = PoolConfig{1, 1, true};   // room for one exchange in flight
  ServiceBroker broker("b", cfg);
  auto bad = std::make_shared<TokenBackend>();
  auto good = std::make_shared<TokenBackend>();
  broker.add_backend(bad);
  broker.add_backend(good);

  // Least-outstanding ties break toward replica 0: one failure ejects it.
  Capture first;
  broker.submit(0.0, make_request(1, 3, "q1"), first.fn());
  bad->complete(0, 0.01, false, "down");
  ASSERT_TRUE(broker.balancer().ejected(0));

  // The healthy replica holds the pool's only lease.
  Capture holder;
  broker.submit(0.5, make_request(2, 3, "q2"), holder.fn());
  ASSERT_EQ(good->invocations.size(), 1u);

  // Past the eject window replica 0 is due its half-open probe, but the
  // saturated pool refuses the carrier: the request is shed, the probe
  // abandoned.
  Capture refused;
  broker.submit(1.5, make_request(3, 3, "q3"), refused.fn());
  ASSERT_EQ(refused.replies.size(), 1u);
  EXPECT_EQ(refused.replies[0].fidelity, http::Fidelity::kBusy);
  EXPECT_EQ(broker.balancer().probes(), 1u);
  EXPECT_EQ(bad->invocations.size(), 1u);
  EXPECT_EQ(broker.metrics().lifecycle.probes, 0u);  // none reached the wire

  // With the pool free again the next request carries a new probe, and its
  // success ends the ejection.
  good->complete(0, 1.6, true, "ok");
  Capture probe;
  broker.submit(1.7, make_request(4, 3, "q4"), probe.fn());
  EXPECT_EQ(broker.balancer().probes(), 2u);
  ASSERT_EQ(bad->invocations.size(), 2u);
  bad->complete(1, 1.75, true, "back");
  ASSERT_EQ(probe.replies.size(), 1u);
  EXPECT_EQ(probe.replies[0].fidelity, http::Fidelity::kFull);
  EXPECT_FALSE(broker.balancer().ejected(0));
  EXPECT_EQ(broker.outstanding(), 0u);
}

TEST(Lifecycle, BatchMembersExpireIndividually) {
  BrokerConfig cfg = basic_config();
  cfg.cluster = ClusterConfig{2, 0.05};
  ServiceBroker broker("b", cfg);
  auto backend = std::make_shared<TokenBackend>();
  broker.add_backend(backend);
  Capture shortlived, longlived;
  broker.submit(0.0, deadline_request(1, 3, 100, "a"), shortlived.fn());
  broker.submit(0.0, deadline_request(2, 3, 10000, "b"), longlived.fn());
  ASSERT_EQ(backend->invocations.size(), 1u);  // clustered into one exchange
  // Call timeout covers the longest-lived member, plus the transport slack.
  EXPECT_NEAR(backend->invocations[0].timeout,
              10.0 + kTransportSlack, 1e-9);
  broker.tick(0.2);  // member 1 expires; the exchange stays alive for member 2
  ASSERT_EQ(shortlived.replies.size(), 1u);
  EXPECT_EQ(shortlived.replies[0].fidelity, http::Fidelity::kBusy);
  EXPECT_TRUE(longlived.replies.empty());
  ASSERT_TRUE(backend->invocations[0].token);
  EXPECT_FALSE(backend->invocations[0].token->cancelled());
  backend->complete(0, 0.5, true, std::string("ra") + std::string(1, kRecordSep) + "rb");
  ASSERT_EQ(longlived.replies.size(), 1u);
  EXPECT_EQ(longlived.replies[0].fidelity, http::Fidelity::kFull);
  EXPECT_EQ(longlived.replies[0].payload, "rb");
  EXPECT_EQ(shortlived.replies.size(), 1u);  // no second answer for member 1
  EXPECT_EQ(broker.outstanding(), 0u);
  EXPECT_EQ(broker.metrics().lifecycle.cancellations, 0u);
}

TEST(Lifecycle, CancelTokenFiresOnceAllMembersExpire) {
  BrokerConfig cfg = basic_config();
  cfg.cluster = ClusterConfig{2, 0.05};
  cfg.lifecycle.default_deadline = 0.1;
  ServiceBroker broker("b", cfg);
  auto backend = std::make_shared<TokenBackend>();
  broker.add_backend(backend);
  Capture a, b;
  broker.submit(0.0, make_request(1, 3, "a"), a.fn());
  broker.submit(0.0, make_request(2, 3, "b"), b.fn());
  ASSERT_EQ(backend->invocations.size(), 1u);
  broker.tick(0.2);
  EXPECT_EQ(a.replies.size(), 1u);
  EXPECT_EQ(b.replies.size(), 1u);
  ASSERT_TRUE(backend->invocations[0].token);
  EXPECT_TRUE(backend->invocations[0].token->cancelled());
  EXPECT_EQ(broker.metrics().lifecycle.cancellations, 1u);
  EXPECT_EQ(broker.outstanding(), 0u);
  EXPECT_EQ(broker.load_tracker().outstanding(), 0);
}

TEST(Lifecycle, ConservationHoldsWithDeadlinesAndRetries) {
  BrokerConfig cfg = basic_config();
  cfg.lifecycle.default_deadline = 0.1;
  cfg.lifecycle.max_attempts = 2;
  ServiceBroker broker("b", cfg);
  auto backend = std::make_shared<TokenBackend>();
  broker.add_backend(backend);
  size_t replies = 0;
  // Mixed fates: 0 completes, 1 expires, 2 fails then retries to completion.
  for (uint64_t id = 0; id < 3; ++id) {
    broker.submit(0.0, make_request(id + 1, 3, nth("q", id)),
                  [&replies](const http::BrokerReply&) { ++replies; });
  }
  ASSERT_EQ(backend->invocations.size(), 3u);
  backend->complete(0, 0.01);
  backend->complete(2, 0.02, false, "flaky");
  broker.tick(0.04);  // drains the retry for request 3
  ASSERT_EQ(backend->invocations.size(), 4u);
  backend->complete(3, 0.06, true, "second try");
  broker.tick(0.2);  // request 2 expires
  EXPECT_EQ(replies, 3u);
  EXPECT_EQ(broker.outstanding(), 0u);
  EXPECT_EQ(broker.load_tracker().outstanding(), 0);
  const auto& m = broker.metrics().at(3);
  EXPECT_EQ(m.issued, 3u);
  EXPECT_EQ(m.completed, 3u);
  EXPECT_EQ(m.forwarded + m.dropped + m.cache_hits + m.errors, m.issued);
  EXPECT_EQ(m.deadline_misses, 1u);
  EXPECT_EQ(m.retries, 1u);
}

}  // namespace
}  // namespace sbroker::core
