// Single-flight miss coalescing, stale-while-revalidate and the
// prefetch/cache races: the anti-stampede layer end to end.
//
// The FlightTable unit tests cover the cross-shard registry in isolation;
// the ServiceBroker tests drive the full data path with a FakeBackend whose
// completions the test fires explicitly, so identical misses genuinely
// overlap in flight. The two-broker tests share a FlightTable and a striped
// cache the way the sharded daemon does, exercising the park/notify/drain
// path without any threads.
#include "core/flight.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/broker.h"
#include "core/cache.h"
#include "util/rng.h"

namespace sbroker::core {
namespace {

// ---------------------------------------------------------------------------
// FlightTable unit tests.

TEST(FlightTable, FirstClaimWinsLaterClaimsParkAndResolveNotifies) {
  FlightTable table;
  EXPECT_TRUE(table.claim("k", nullptr));
  EXPECT_EQ(table.in_flight(), 1u);

  std::vector<std::string> notified;
  EXPECT_FALSE(table.claim("k", [&](const std::string& key) {
    notified.push_back(key);
  }));
  EXPECT_FALSE(table.claim("k", [&](const std::string& key) {
    notified.push_back(key);
  }));
  EXPECT_TRUE(notified.empty());  // nothing fires before resolution

  table.resolve("k");
  ASSERT_EQ(notified.size(), 2u);
  EXPECT_EQ(notified[0], "k");
  EXPECT_EQ(notified[1], "k");
  EXPECT_EQ(table.in_flight(), 0u);
  EXPECT_EQ(table.claims(), 1u);
  EXPECT_EQ(table.parked(), 2u);
  EXPECT_EQ(table.resolves(), 1u);
}

TEST(FlightTable, ResolveWithoutClaimIsNoop) {
  FlightTable table;
  table.resolve("never-claimed");
  EXPECT_EQ(table.resolves(), 0u);
}

TEST(FlightTable, KeyIsReclaimableAfterResolve) {
  FlightTable table;
  EXPECT_TRUE(table.claim("k", nullptr));
  table.resolve("k");
  EXPECT_TRUE(table.claim("k", nullptr));
  EXPECT_EQ(table.claims(), 2u);
}

TEST(FlightTable, NotifyFiresOutsideStripeLock) {
  // A subscriber that re-enters claim() for the same key (a parked shard
  // promoting a local waiter to the new leader) must not deadlock, and must
  // win the claim because resolve() clears the entry before notifying.
  FlightTable table;
  ASSERT_TRUE(table.claim("k", nullptr));
  bool reclaimed = false;
  ASSERT_FALSE(table.claim("k", [&](const std::string& key) {
    reclaimed = table.claim(key, nullptr);
  }));
  table.resolve("k");
  EXPECT_TRUE(reclaimed);
  EXPECT_EQ(table.in_flight(), 1u);
}

TEST(FlightTable, ConcurrentClaimsElectExactlyOneOwner) {
  FlightTable table(4);
  constexpr int kThreads = 8;
  std::atomic<int> owners{0};
  std::atomic<int> notified{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&]() {
      if (table.claim("hot", [&](const std::string&) { ++notified; })) {
        ++owners;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(owners.load(), 1);
  table.resolve("hot");
  EXPECT_EQ(notified.load(), kThreads - 1);
  EXPECT_EQ(table.parked(), static_cast<uint64_t>(kThreads - 1));
}

// ---------------------------------------------------------------------------
// ServiceBroker integration: shared FakeBackend/test-harness idioms.

/// Records invocations; the test completes them explicitly, so identical
/// misses can overlap in flight.
class FakeBackend : public Backend {
 public:
  struct Invocation {
    std::string payload;
    bool setup = false;
    Completion done;
  };

  void invoke(const Call& call, Completion done) override {
    invocations.push_back({call.payload, call.needs_connection_setup,
                           std::move(done)});
  }

  void complete(size_t i, double now, bool ok = true,
                std::string payload = "result") {
    Completion done = std::move(invocations.at(i).done);
    done(now, ok, std::move(payload));
  }

  std::vector<Invocation> invocations;
};

http::BrokerRequest make_request(uint64_t id, int level,
                                 std::string payload = "q",
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

BrokerConfig cache_config() {
  BrokerConfig cfg;
  cfg.rules = QosRules{3, 20.0};
  cfg.enable_cache = true;
  cfg.cache_ttl = 100.0;
  cfg.serve_stale_on_drop = false;
  return cfg;
}

/// Conservation identity the benches gate on: every issued request is
/// answered exactly once, through exactly one bucket.
void expect_conserved(const ServiceBroker& broker) {
  BrokerMetrics::ClassCounters t = broker.metrics().total();
  EXPECT_EQ(t.issued, t.completed);
  EXPECT_EQ(t.forwarded + t.dropped + t.cache_hits + t.errors, t.issued);
}

TEST(SingleFlight, ConcurrentIdenticalMissesShareOneFetch) {
  ServiceBroker broker("b", cache_config());
  auto backend = std::make_shared<FakeBackend>();
  broker.add_backend(backend);

  Capture leader, w1, w2;
  broker.submit(0.0, make_request(1, 3, "hot"), leader.fn());
  broker.submit(0.0, make_request(2, 3, "hot"), w1.fn());
  broker.submit(0.0, make_request(3, 2, "hot"), w2.fn());

  // One backend fetch carries all three requests.
  ASSERT_EQ(backend->invocations.size(), 1u);
  EXPECT_EQ(broker.waiting_flights(), 1u);
  EXPECT_EQ(broker.metrics().flight.coalesced_waiters, 2u);
  EXPECT_TRUE(leader.replies.empty());
  EXPECT_TRUE(w1.replies.empty());

  backend->complete(0, 0.2, true, "value");
  ASSERT_EQ(leader.replies.size(), 1u);
  EXPECT_EQ(leader.replies[0].fidelity, http::Fidelity::kFull);
  ASSERT_EQ(w1.replies.size(), 1u);
  EXPECT_EQ(w1.replies[0].fidelity, http::Fidelity::kCached);
  EXPECT_EQ(w1.replies[0].payload, "value");
  ASSERT_EQ(w2.replies.size(), 1u);
  EXPECT_EQ(w2.replies[0].fidelity, http::Fidelity::kCached);
  EXPECT_EQ(broker.waiting_flights(), 0u);
  EXPECT_EQ(broker.flight_table().in_flight(), 0u);
  EXPECT_EQ(broker.outstanding(), 0u);
  expect_conserved(broker);

  // The completion also populated the cache: a fourth request is a plain hit.
  Capture hit;
  broker.submit(0.5, make_request(4, 3, "hot"), hit.fn());
  ASSERT_EQ(hit.replies.size(), 1u);
  EXPECT_EQ(hit.replies[0].fidelity, http::Fidelity::kCached);
  EXPECT_EQ(backend->invocations.size(), 1u);
}

TEST(SingleFlight, DistinctKeysDoNotCoalesce) {
  ServiceBroker broker("b", cache_config());
  auto backend = std::make_shared<FakeBackend>();
  broker.add_backend(backend);
  Capture a, b;
  broker.submit(0.0, make_request(1, 3, "ka"), a.fn());
  broker.submit(0.0, make_request(2, 3, "kb"), b.fn());
  EXPECT_EQ(backend->invocations.size(), 2u);
  EXPECT_EQ(broker.metrics().flight.coalesced_waiters, 0u);
}

TEST(SingleFlight, KillSwitchRestoresDuplicateFetches) {
  BrokerConfig cfg = cache_config();
  cfg.single_flight = false;
  ServiceBroker broker("b", cfg);
  auto backend = std::make_shared<FakeBackend>();
  broker.add_backend(backend);
  Capture a, b;
  broker.submit(0.0, make_request(1, 3, "hot"), a.fn());
  broker.submit(0.0, make_request(2, 3, "hot"), b.fn());
  EXPECT_EQ(backend->invocations.size(), 2u);  // the stampede, by request
  EXPECT_EQ(broker.metrics().flight.coalesced_waiters, 0u);
}

TEST(SingleFlight, WaiterKeepsItsOwnDeadline) {
  ServiceBroker broker("b", cache_config());
  auto backend = std::make_shared<FakeBackend>();
  broker.add_backend(backend);

  Capture leader, waiter;
  broker.submit(0.0, make_request(1, 3, "hot", /*deadline_ms=*/10000),
                leader.fn());
  broker.submit(0.0, make_request(2, 3, "hot", /*deadline_ms=*/100),
                waiter.fn());
  ASSERT_EQ(backend->invocations.size(), 1u);

  // The waiter's 100ms deadline expires while the shared fetch is still out.
  broker.tick(0.2);
  ASSERT_EQ(waiter.replies.size(), 1u);
  EXPECT_EQ(waiter.replies[0].fidelity, http::Fidelity::kBusy);
  EXPECT_EQ(broker.metrics().at(3).deadline_misses, 1u);
  EXPECT_TRUE(leader.replies.empty());

  // The flight survives the waiter's departure and still answers the leader.
  backend->complete(0, 0.5, true, "late-value");
  ASSERT_EQ(leader.replies.size(), 1u);
  EXPECT_EQ(leader.replies[0].fidelity, http::Fidelity::kFull);
  ASSERT_EQ(waiter.replies.size(), 1u);  // no double reply
  expect_conserved(broker);
}

TEST(SingleFlight, LeaderFailureFailsWaitersAndSeedsNegativeCache) {
  BrokerConfig cfg = cache_config();
  cfg.cache_tuning.negative_ttl = 5.0;
  ServiceBroker broker("b", cfg);
  auto backend = std::make_shared<FakeBackend>();
  broker.add_backend(backend);

  Capture leader, waiter;
  broker.submit(0.0, make_request(1, 3, "bad"), leader.fn());
  broker.submit(0.0, make_request(2, 3, "bad"), waiter.fn());
  ASSERT_EQ(backend->invocations.size(), 1u);

  backend->complete(0, 0.1, false, "boom");
  ASSERT_EQ(leader.replies.size(), 1u);
  EXPECT_EQ(leader.replies[0].fidelity, http::Fidelity::kError);
  ASSERT_EQ(waiter.replies.size(), 1u);
  EXPECT_EQ(waiter.replies[0].fidelity, http::Fidelity::kError);
  EXPECT_EQ(waiter.replies[0].payload, "boom");

  // The failure was cached: a repeat within the negative TTL is answered
  // without touching the backend.
  Capture repeat;
  broker.submit(1.0, make_request(3, 3, "bad"), repeat.fn());
  ASSERT_EQ(repeat.replies.size(), 1u);
  EXPECT_EQ(repeat.replies[0].fidelity, http::Fidelity::kError);
  EXPECT_EQ(backend->invocations.size(), 1u);
  EXPECT_EQ(broker.metrics().flight.negative_hits, 1u);

  // Past the negative TTL the key is fetchable again.
  Capture fresh;
  broker.submit(6.0, make_request(4, 3, "bad"), fresh.fn());
  EXPECT_EQ(backend->invocations.size(), 2u);
  EXPECT_TRUE(fresh.replies.empty());
  backend->complete(1, 6.1, true, "recovered");
  ASSERT_EQ(fresh.replies.size(), 1u);
  EXPECT_EQ(fresh.replies[0].fidelity, http::Fidelity::kFull);
  expect_conserved(broker);
}

TEST(SingleFlight, DeadLeaderPromotesWaiterToFreshFetch) {
  ServiceBroker broker("b", cache_config());
  auto backend = std::make_shared<FakeBackend>();
  broker.add_backend(backend);

  Capture leader, waiter;
  broker.submit(0.0, make_request(1, 3, "hot", /*deadline_ms=*/100),
                leader.fn());
  broker.submit(0.0, make_request(2, 3, "hot", /*deadline_ms=*/10000),
                waiter.fn());
  ASSERT_EQ(backend->invocations.size(), 1u);

  // The leader's deadline expires with the fetch still out; its exchange is
  // harvested (the waiter never joined it) and the waiter must inherit the
  // flight with a fetch of its own rather than waiting forever.
  broker.tick(0.2);
  ASSERT_EQ(leader.replies.size(), 1u);
  EXPECT_EQ(leader.replies[0].fidelity, http::Fidelity::kBusy);
  ASSERT_EQ(backend->invocations.size(), 2u);
  EXPECT_EQ(broker.metrics().flight.promotions, 1u);
  EXPECT_EQ(broker.metrics().lifecycle.cancellations, 1u);

  backend->complete(1, 0.3, true, "second-wind");
  ASSERT_EQ(waiter.replies.size(), 1u);
  EXPECT_EQ(waiter.replies[0].fidelity, http::Fidelity::kFull);
  EXPECT_EQ(waiter.replies[0].payload, "second-wind");
  EXPECT_EQ(broker.waiting_flights(), 0u);
  EXPECT_EQ(broker.flight_table().in_flight(), 0u);
  expect_conserved(broker);
}

// ---------------------------------------------------------------------------
// Stale-while-revalidate.

TEST(StaleWhileRevalidate, ServesStaleAndIssuesExactlyOneRefresh) {
  BrokerConfig cfg = cache_config();
  cfg.cache_ttl = 1.0;
  cfg.cache_tuning.swr_grace = 1.0;
  ServiceBroker broker("b", cfg);
  auto backend = std::make_shared<FakeBackend>();
  broker.add_backend(backend);

  Capture seed;
  broker.submit(0.0, make_request(1, 3, "news"), seed.fn());
  backend->complete(0, 0.1, true, "v1");

  // Entry expired at ~1.1; both requests land inside the grace window. Both
  // are served the stale value immediately, and exactly one background
  // revalidation goes out.
  Capture s1, s2;
  broker.submit(1.5, make_request(2, 3, "news"), s1.fn());
  broker.submit(1.5, make_request(3, 3, "news"), s2.fn());
  ASSERT_EQ(s1.replies.size(), 1u);
  EXPECT_EQ(s1.replies[0].fidelity, http::Fidelity::kCached);
  EXPECT_EQ(s1.replies[0].payload, "v1");
  ASSERT_EQ(s2.replies.size(), 1u);
  EXPECT_EQ(s2.replies[0].payload, "v1");
  EXPECT_EQ(broker.metrics().flight.swr_hits, 2u);
  EXPECT_EQ(broker.metrics().flight.refreshes, 1u);
  ASSERT_EQ(backend->invocations.size(), 2u);  // seed + one refresh
  EXPECT_EQ(backend->invocations[1].payload, "news");
  // The refresh is a background request context: it counts in the load the
  // admission rule reads until it lands.
  EXPECT_EQ(broker.outstanding(), 1u);

  // The refresh lands and the next request sees the fresh value.
  backend->complete(1, 1.6, true, "v2");
  EXPECT_EQ(broker.outstanding(), 0u);
  Capture fresh;
  broker.submit(1.7, make_request(4, 3, "news"), fresh.fn());
  ASSERT_EQ(fresh.replies.size(), 1u);
  EXPECT_EQ(fresh.replies[0].fidelity, http::Fidelity::kCached);
  EXPECT_EQ(fresh.replies[0].payload, "v2");
  EXPECT_EQ(backend->invocations.size(), 2u);
  expect_conserved(broker);
}

TEST(StaleWhileRevalidate, FailedRefreshKeepsStaleValueServable) {
  BrokerConfig cfg = cache_config();
  cfg.cache_ttl = 1.0;
  cfg.cache_tuning.swr_grace = 2.0;
  cfg.cache_tuning.negative_ttl = 5.0;
  ServiceBroker broker("b", cfg);
  auto backend = std::make_shared<FakeBackend>();
  broker.add_backend(backend);

  Capture seed;
  broker.submit(0.0, make_request(1, 3, "news"), seed.fn());
  backend->complete(0, 0.1, true, "v1");

  Capture stale;
  broker.submit(1.5, make_request(2, 3, "news"), stale.fn());
  ASSERT_EQ(backend->invocations.size(), 2u);
  backend->complete(1, 1.6, /*ok=*/false, "refresh-boom");

  // put_negative never overwrites a resident positive entry: the key keeps
  // serving its stale truth instead of surfacing the background failure.
  Capture after;
  broker.submit(1.7, make_request(3, 3, "news"), after.fn());
  ASSERT_EQ(after.replies.size(), 1u);
  EXPECT_EQ(after.replies[0].fidelity, http::Fidelity::kCached);
  EXPECT_EQ(after.replies[0].payload, "v1");
  EXPECT_EQ(backend->invocations.size(), 2u);  // claim still held: no re-issue
  expect_conserved(broker);
}

TEST(StaleWhileRevalidate, DemandMissDuringRefreshCoalescesOntoIt) {
  BrokerConfig cfg = cache_config();
  cfg.cache_ttl = 1.0;
  cfg.cache_tuning.swr_grace = 0.5;
  ServiceBroker broker("b", cfg);
  auto backend = std::make_shared<FakeBackend>();
  broker.add_backend(backend);

  Capture seed;
  broker.submit(0.0, make_request(1, 3, "news"), seed.fn());
  backend->complete(0, 0.1, true, "v1");

  Capture stale;
  broker.submit(1.3, make_request(2, 3, "news"), stale.fn());  // in grace
  ASSERT_EQ(backend->invocations.size(), 2u);                  // refresh out

  // Past the grace window the entry is a hard miss — but the refresh flight
  // is still in the air, so the demand request parks on it instead of
  // issuing a third fetch.
  Capture demand;
  broker.submit(2.0, make_request(3, 3, "news"), demand.fn());
  EXPECT_EQ(backend->invocations.size(), 2u);
  EXPECT_EQ(broker.metrics().flight.coalesced_waiters, 1u);
  backend->complete(1, 2.1, true, "v2");
  ASSERT_EQ(demand.replies.size(), 1u);
  EXPECT_EQ(demand.replies[0].fidelity, http::Fidelity::kCached);
  EXPECT_EQ(demand.replies[0].payload, "v2");
  expect_conserved(broker);
}

// ---------------------------------------------------------------------------
// Prefetch/cache races.

TEST(PrefetchRace, DemandMissCoalescesWithInFlightPrefetch) {
  ServiceBroker broker("b", cache_config());
  auto backend = std::make_shared<FakeBackend>();
  broker.add_backend(backend);
  broker.prefetcher().add("k", 10.0);

  broker.tick(0.0);
  ASSERT_EQ(backend->invocations.size(), 1u);  // the prefetch fetch

  // A demand miss for the same key while the prefetch is on the wire parks
  // on the speculative flight instead of duplicating the fetch.
  Capture demand;
  broker.submit(0.1, make_request(1, 3, "k"), demand.fn());
  EXPECT_EQ(backend->invocations.size(), 1u);
  EXPECT_EQ(broker.metrics().flight.coalesced_waiters, 1u);

  backend->complete(0, 0.2, true, "prefetched");
  ASSERT_EQ(demand.replies.size(), 1u);
  EXPECT_EQ(demand.replies[0].fidelity, http::Fidelity::kCached);
  EXPECT_EQ(demand.replies[0].payload, "prefetched");
  EXPECT_EQ(broker.waiting_flights(), 0u);
  expect_conserved(broker);
}

TEST(PrefetchRace, SlowPrefetchDoesNotClobberNewerDemandResult) {
  // The original race needs two concurrent fetches for one key, so the
  // coalescing layer is disabled — this pins the cache-level fix alone:
  // prefetch completions are stamped with their *issue* time and the
  // cache's last-write-wins rule discards the stale store.
  BrokerConfig cfg = cache_config();
  cfg.single_flight = false;
  ServiceBroker broker("b", cfg);
  auto backend = std::make_shared<FakeBackend>();
  broker.add_backend(backend);
  broker.prefetcher().add("k", 10.0);

  broker.tick(0.0);                                    // prefetch issued at 0
  Capture demand;
  broker.submit(0.1, make_request(1, 3, "k"), demand.fn());
  ASSERT_EQ(backend->invocations.size(), 2u);

  backend->complete(1, 0.2, true, "fresh");            // demand lands first
  ASSERT_EQ(demand.replies.size(), 1u);
  EXPECT_EQ(demand.replies[0].fidelity, http::Fidelity::kFull);
  backend->complete(0, 0.5, true, "stale-prefetch");   // prefetch limps in

  Capture repeat;
  broker.submit(0.6, make_request(2, 3, "k"), repeat.fn());
  ASSERT_EQ(repeat.replies.size(), 1u);
  EXPECT_EQ(repeat.replies[0].fidelity, http::Fidelity::kCached);
  EXPECT_EQ(repeat.replies[0].payload, "fresh");  // not "stale-prefetch"
}

TEST(PrefetchRace, BusyBrokerDoesNotArmZeroDelayPrefetchWakeups) {
  // Regression for the wakeup spin: an overdue prefetch entry used to fold
  // into next_deadline() even when the broker was too loaded to issue it,
  // so the owner armed a timer for `now`, ticked, issued nothing, and asked
  // again — a zero-delay spin until load drained. The gate is the admission
  // rule at the lowest class.
  BrokerConfig cfg = cache_config();
  cfg.rules = QosRules{3, 3.0};  // class-1 bound 1: any outstanding request
  ServiceBroker broker("b", cfg);
  auto backend = std::make_shared<FakeBackend>();
  broker.add_backend(backend);
  broker.prefetcher().add("k", 0.001);

  Capture busy;
  broker.submit(0.0, make_request(1, 3, "other"), busy.fn());
  ASSERT_EQ(broker.outstanding(), 1u);

  // The overdue entry must not surface while the broker is busy...
  EXPECT_FALSE(broker.next_deadline().has_value());

  // ...and an owner that ticks whenever told converges instead of spinning.
  uint64_t before = broker.ticks();
  for (int spin = 0; spin < 100; ++spin) {
    auto due = broker.next_deadline();
    if (!due) break;
    broker.tick(*due);
  }
  EXPECT_EQ(broker.ticks(), before);

  // Once load drains the schedule reappears and the next tick issues it.
  backend->complete(0, 0.5, true, "done");
  auto due = broker.next_deadline();
  ASSERT_TRUE(due.has_value());
  broker.tick(std::max(*due, 0.5));
  EXPECT_EQ(backend->invocations.size(), 2u);
  EXPECT_EQ(broker.prefetcher().issued(), 1u);
}

// ---------------------------------------------------------------------------
// Cross-broker coalescing through a shared FlightTable + striped cache,
// exactly how the sharded daemon wires its shards (minus the threads: the
// notify path is exercised synchronously).

struct BrokerPair {
  std::shared_ptr<ResultCache> cache;
  std::shared_ptr<FlightTable> flights;
  ServiceBroker a;
  ServiceBroker b;
  std::shared_ptr<FakeBackend> backend_a = std::make_shared<FakeBackend>();
  std::shared_ptr<FakeBackend> backend_b = std::make_shared<FakeBackend>();
  int b_notified = 0;

  explicit BrokerPair(const BrokerConfig& cfg)
      : cache(std::make_shared<ResultCache>(1024, cfg.cache_ttl, 4,
                                            cfg.cache_tuning)),
        flights(std::make_shared<FlightTable>(4)),
        a("shard-a", cfg),
        b("shard-b", cfg) {
    for (ServiceBroker* broker : {&a, &b}) {
      broker->share_cache(cache);
      broker->share_flights(flights);
    }
    a.add_backend(backend_a);
    b.add_backend(backend_b);
    b.set_flight_notifier([this]() { ++b_notified; });
  }
};

TEST(CrossShardFlight, MissParksBehindRemoteFetchAndDrainsOnResolve) {
  BrokerPair pair(cache_config());

  Capture at_a, at_b;
  pair.a.submit(0.0, make_request(1, 3, "hot"), at_a.fn());
  ASSERT_EQ(pair.backend_a->invocations.size(), 1u);

  // Shard B misses on the same key while A's fetch is out: the claim fails,
  // the request parks leaderless, and B's backend is never touched.
  pair.b.submit(0.0, make_request(2, 3, "hot"), at_b.fn());
  EXPECT_TRUE(pair.backend_b->invocations.empty());
  EXPECT_EQ(pair.b.waiting_flights(), 1u);
  EXPECT_EQ(pair.flights->parked(), 1u);

  // A's completion publishes to the shared cache, resolves the table, and
  // the notify pokes B (the daemon posts this to B's reactor; here the test
  // plays the reactor and ticks B directly).
  pair.backend_a->complete(0, 0.2, true, "value");
  EXPECT_EQ(pair.b_notified, 1);
  ASSERT_EQ(at_a.replies.size(), 1u);
  EXPECT_EQ(at_a.replies[0].fidelity, http::Fidelity::kFull);
  EXPECT_TRUE(at_b.replies.empty());

  pair.b.tick(0.3);
  ASSERT_EQ(at_b.replies.size(), 1u);
  EXPECT_EQ(at_b.replies[0].fidelity, http::Fidelity::kCached);
  EXPECT_EQ(at_b.replies[0].payload, "value");
  EXPECT_TRUE(pair.backend_b->invocations.empty());
  EXPECT_EQ(pair.b.waiting_flights(), 0u);
  EXPECT_EQ(pair.flights->in_flight(), 0u);
  expect_conserved(pair.a);
  expect_conserved(pair.b);
}

TEST(CrossShardFlight, RemoteFetchDeathPromotesLocalWaiter) {
  BrokerPair pair(cache_config());

  Capture at_a, at_b;
  pair.a.submit(0.0, make_request(1, 3, "hot", /*deadline_ms=*/100),
                at_a.fn());
  pair.b.submit(0.0, make_request(2, 3, "hot", /*deadline_ms=*/10000),
                at_b.fn());
  ASSERT_EQ(pair.backend_a->invocations.size(), 1u);
  EXPECT_TRUE(pair.backend_b->invocations.empty());

  // A's leader dies on its deadline without publishing anything. The flight
  // resolves empty-handed; B wakes, finds the shared cache still bare,
  // re-claims the key and promotes its parked request to lead a new fetch.
  pair.a.tick(0.2);
  ASSERT_EQ(at_a.replies.size(), 1u);
  EXPECT_EQ(at_a.replies[0].fidelity, http::Fidelity::kBusy);
  EXPECT_EQ(pair.b_notified, 1);

  pair.b.tick(0.3);
  ASSERT_EQ(pair.backend_b->invocations.size(), 1u);
  EXPECT_EQ(pair.b.metrics().flight.promotions, 1u);
  pair.backend_b->complete(0, 0.4, true, "second-wind");
  ASSERT_EQ(at_b.replies.size(), 1u);
  EXPECT_EQ(at_b.replies[0].fidelity, http::Fidelity::kFull);
  EXPECT_EQ(at_b.replies[0].payload, "second-wind");
  EXPECT_EQ(pair.flights->in_flight(), 0u);
  expect_conserved(pair.a);
  expect_conserved(pair.b);
}

TEST(CrossShardFlight, OnlyOneShardWinsTheStaleRefreshClaim) {
  BrokerConfig cfg = cache_config();
  cfg.cache_ttl = 1.0;
  cfg.cache_tuning.swr_grace = 1.0;
  BrokerPair pair(cfg);

  Capture seed;
  pair.a.submit(0.0, make_request(1, 3, "news"), seed.fn());
  pair.backend_a->complete(0, 0.1, true, "v1");

  // Both shards see the same stale entry inside the grace window; the
  // striped cache hands out one refresh claim, so one revalidation total.
  Capture sa, sb;
  pair.a.submit(1.5, make_request(2, 3, "news"), sa.fn());
  pair.b.submit(1.5, make_request(3, 3, "news"), sb.fn());
  ASSERT_EQ(sa.replies.size(), 1u);
  EXPECT_EQ(sa.replies[0].payload, "v1");
  ASSERT_EQ(sb.replies.size(), 1u);
  EXPECT_EQ(sb.replies[0].payload, "v1");
  size_t refresh_fetches =
      pair.backend_a->invocations.size() + pair.backend_b->invocations.size();
  EXPECT_EQ(refresh_fetches, 2u);  // the seed fetch plus exactly one refresh
  EXPECT_EQ(pair.a.metrics().flight.refreshes +
                pair.b.metrics().flight.refreshes,
            1u);
}

// ---------------------------------------------------------------------------
// Executable spec of the flight table. FlightModel is what single-flight
// promises, written plainly: per key at most one live backend call, carried
// by a leader with its waiters in arrival order; a completion answers them
// all (kFull/kCached, or kError), an expired waiter leaves with a busy
// reply, and an expired leader's call is cancelled and its first remaining
// waiter leads a fresh call. A seeded stream of submits, completions and
// ticks drives the model and a real broker side by side; after every step
// the broker's live calls and replies must equal the model's.

/// Keeps each call with its cancel token; the spec completes them.
class SpecBackend : public Backend {
 public:
  struct Pending {
    std::string key;
    CancelTokenPtr token;
    Completion done;  ///< empty once completed
  };

  void invoke(const Call& call, Completion done) override {
    invoke(call, std::make_shared<CancelToken>(), std::move(done));
  }
  void invoke(const Call& call, const CancelTokenPtr& token, Completion done) override {
    calls.push_back({call.payload, token, std::move(done)});
  }
  bool live(size_t i) const { return calls[i].done && !calls[i].token->cancelled(); }

  std::vector<Pending> calls;
};

struct FlightModel {
  struct Flight {
    size_t call = 0;  ///< backend call index
    uint64_t leader = 0;
    std::vector<uint64_t> waiters;
  };
  struct Request {
    std::string key;
    double deadline = kNoDeadline;
  };

  double ttl = 0.0;
  double now = 0.0;
  std::map<std::string, double> fresh_until;
  std::map<std::string, Flight> flights;
  std::map<uint64_t, Request> pending;
  std::map<uint64_t, http::Fidelity> replies;
  std::set<std::string> to_dispatch;  ///< promoted leaders awaiting a call

  /// True when the submit must start a backend call for `key`.
  bool submit(uint64_t id, const std::string& key, uint32_t deadline_ms) {
    auto fresh = fresh_until.find(key);
    if (fresh != fresh_until.end() && now <= fresh->second) {
      replies[id] = http::Fidelity::kCached;
      return false;
    }
    pending[id] = {key, deadline_ms > 0 ? now + deadline_ms / 1000.0 : kNoDeadline};
    auto it = flights.find(key);
    if (it != flights.end()) {
      it->second.waiters.push_back(id);
      return false;
    }
    flights[key].leader = id;
    return true;
  }

  void complete(const std::string& key, bool ok) {
    Flight f = flights.at(key);
    flights.erase(key);
    answer(f.leader, ok ? http::Fidelity::kFull : http::Fidelity::kError);
    for (uint64_t w : f.waiters) {
      answer(w, ok ? http::Fidelity::kCached : http::Fidelity::kError);
    }
    if (ok) fresh_until[key] = now + ttl;
  }

  void tick(double t) {
    now = t;
    std::vector<std::pair<double, uint64_t>> due;  // the broker's heap order
    for (const auto& [id, r] : pending) {
      if (r.deadline <= t) due.emplace_back(r.deadline, id);
    }
    std::sort(due.begin(), due.end());
    for (const auto& [deadline, id] : due) {
      std::string key = pending.at(id).key;
      answer(id, http::Fidelity::kBusy);
      Flight& f = flights.at(key);
      if (f.leader != id) {
        std::erase(f.waiters, id);
        continue;
      }
      to_dispatch.erase(key);
      if (f.waiters.empty()) {
        flights.erase(key);
        continue;
      }
      f.leader = f.waiters.front();
      f.waiters.erase(f.waiters.begin());
      to_dispatch.insert(key);
    }
  }

  void answer(uint64_t id, http::Fidelity fidelity) {
    pending.erase(id);
    replies[id] = fidelity;
  }
};

/// Runs one seeded stream; folds the broker's counters into `sum`.
void run_flight_spec(uint64_t seed, BrokerMetrics& sum) {
  BrokerConfig cfg = cache_config();
  cfg.rules = QosRules{3, 1e9};  // admit everything: only flights decide
  cfg.cache_ttl = 0.03;
  ServiceBroker broker("spec", cfg);
  auto backend = std::make_shared<SpecBackend>();
  broker.add_backend(backend);
  FlightModel model;
  model.ttl = cfg.cache_ttl;
  std::map<uint64_t, std::vector<http::Fidelity>> got;
  util::Rng rng(seed);
  uint64_t next_id = 1;

  // The broker's new calls since `seen` must be exactly one per key the
  // model expects to start, and every live call must be its key's flight.
  size_t seen = 0;
  auto check = [&](std::multiset<std::string> started) {
    for (; seen < backend->calls.size(); ++seen) {
      const std::string& key = backend->calls[seen].key;
      ASSERT_EQ(started.count(key), 1u) << "unexpected call for " << key;
      started.erase(key);
      model.flights.at(key).call = seen;
    }
    ASSERT_TRUE(started.empty()) << started.size() << " calls missing";
    size_t live = 0;
    for (size_t i = 0; i < backend->calls.size(); ++i) {
      if (!backend->live(i)) continue;
      ++live;
      auto f = model.flights.find(backend->calls[i].key);
      ASSERT_TRUE(f != model.flights.end() && f->second.call == i)
          << "call " << i << " for " << backend->calls[i].key << " has no flight";
    }
    ASSERT_EQ(live, model.flights.size());
    ASSERT_EQ(broker.waiting_flights(), model.flights.size());
    for (const auto& [id, fidelities] : got) {
      ASSERT_EQ(fidelities.size(), 1u) << "request " << id;
      ASSERT_TRUE(model.replies.count(id)) << "request " << id << " answered early";
      ASSERT_EQ(fidelities[0], model.replies.at(id)) << "request " << id;
    }
    ASSERT_EQ(got.size(), model.replies.size());
  };
  auto complete = [&](size_t i, bool ok) {
    Backend::Completion done = std::move(backend->calls[i].done);
    backend->calls[i].done = nullptr;
    if (!backend->calls[i].token->cancelled()) model.complete(backend->calls[i].key, ok);
    done(model.now, ok, ok ? "v" : "boom");
    check({});
  };
  auto tick = [&](double t) {
    model.tick(t);
    broker.tick(t);
    std::multiset<std::string> started(model.to_dispatch.begin(),
                                       model.to_dispatch.end());
    model.to_dispatch.clear();
    check(std::move(started));
  };

  for (int step = 0; step < 300 && !::testing::Test::HasFatalFailure(); ++step) {
    double roll = rng.next_double();
    if (roll < 0.5) {
      uint64_t id = next_id++;
      std::string key(1, static_cast<char>('a' + rng.uniform_int(0, 2)));
      auto deadline_ms = static_cast<uint32_t>(
          rng.next_double() < 0.5 ? 0 : rng.uniform_int(10, 100));
      bool starts = model.submit(id, key, deadline_ms);
      broker.submit(model.now,
                    make_request(id, static_cast<int>(rng.uniform_int(1, 3)), key,
                                 deadline_ms),
                    [&got](const http::BrokerReply& r) {
                      got[r.request_id].push_back(r.fidelity);
                    });
      check(starts ? std::multiset<std::string>{key} : std::multiset<std::string>{});
    } else if (roll < 0.75) {
      std::vector<size_t> open;  // cancelled calls included: a late answer
      for (size_t i = 0; i < backend->calls.size(); ++i) {
        if (backend->calls[i].done) open.push_back(i);
      }
      if (open.empty()) continue;
      size_t pick = open[static_cast<size_t>(
          rng.uniform_int(0, static_cast<int64_t>(open.size()) - 1))];
      complete(pick, rng.next_double() < 0.7);
    } else {
      tick(model.now + rng.uniform_real(0.0, 0.05));
    }
  }
  // Quiesce: expire every deadline, then answer every live call.
  while (!model.pending.empty() && !::testing::Test::HasFatalFailure()) {
    tick(model.now + 1.0);
    for (size_t i = 0; i < backend->calls.size(); ++i) {
      if (backend->live(i)) complete(i, true);
    }
  }
  ASSERT_EQ(got.size(), next_id - 1);  // every request answered, once
  EXPECT_EQ(broker.outstanding(), 0u);
  EXPECT_EQ(broker.flight_table().in_flight(), 0u);
  expect_conserved(broker);
  sum.merge(broker.metrics());
}

TEST(SingleFlightSpec, SeededStreamMatchesTheModel) {
  BrokerMetrics sum;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_flight_spec(seed, sum);
    if (HasFatalFailure()) return;
  }
  // The streams reach every path the spec speaks about.
  BrokerMetrics::ClassCounters total = sum.total();
  EXPECT_GT(sum.flight.coalesced_waiters, 0u);
  EXPECT_GT(sum.flight.promotions, 0u);
  EXPECT_GT(sum.lifecycle.cancellations, 0u);
  EXPECT_GT(sum.lifecycle.late_completions, 0u);
  EXPECT_GT(total.errors, 0u);
  EXPECT_GT(total.deadline_misses, 0u);
  EXPECT_GT(total.cache_hits, 0u);
}

}  // namespace
}  // namespace sbroker::core
