// StripedResultCache: same LRU+TTL semantics as ResultCache per stripe, plus
// the cross-shard guarantees the sharded daemon depends on — bounded total
// size under any hash skew and integrity under concurrent put/lookup_into.
#include "core/striped_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/broker.h"
#include "core/load.h"

namespace sbroker::core {
namespace {

/// `prefix` followed by `n` in decimal. Built by appending: GCC 12 at -O2
/// reports a false -Wrestrict overlap for `"k" + std::to_string(n)`.
std::string nth(const char* prefix, uint64_t n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

TEST(StripedCacheTest, PutGetRoundTripAcrossManyKeys) {
  // Per-stripe capacity is 64 for 100 keys: no realistic hash skew puts 65
  // of them in one stripe, so no evictions interfere with the round trip.
  StripedResultCache cache(512, 0.0, 8);
  for (int i = 0; i < 100; ++i) {
    cache.put(nth("key-", i), nth("value-", i), 0.0);
  }
  Arena scratch;
  for (int i = 0; i < 100; ++i) {
    LookupView v = cache.lookup_into(nth("key-", i), 1.0, scratch);
    ASSERT_EQ(v.outcome, LookupOutcome::kHit) << i;
    EXPECT_EQ(v.value, nth("value-", i));
  }
  EXPECT_EQ(cache.size(), 100u);
  EXPECT_EQ(cache.hits(), 100u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(StripedCacheTest, EvictionBoundHoldsUnderAnyHashSkew) {
  constexpr size_t kCapacity = 64;
  constexpr size_t kStripes = 8;
  StripedResultCache cache(kCapacity, 0.0, kStripes);
  // 50x capacity of distinct keys: every stripe overflows many times over.
  for (int i = 0; i < 3200; ++i) {
    cache.put(nth("overflow-", i), "v", 0.0);
  }
  EXPECT_LE(cache.size(), cache.max_resident());
  // max_resident == stripes * ceil(capacity/stripes); with divisible numbers
  // it equals the configured capacity exactly.
  EXPECT_EQ(cache.max_resident(), kCapacity);
  EXPECT_GT(cache.evictions(), 0u);
}

TEST(StripedCacheTest, StripeCountClampedToCapacity) {
  StripedResultCache tiny(3, 0.0, 16);  // more stripes than entries
  EXPECT_LE(tiny.stripes(), 3u);
  tiny.put("a", "1", 0.0);
  tiny.put("b", "2", 0.0);
  EXPECT_EQ(tiny.size(), 2u);
}

TEST(StripedCacheTest, TtlExpiryAndStaleLookup) {
  StripedResultCache cache(32, 1.0, 4);
  cache.put("k", "fresh", 0.0);
  Arena scratch;
  LookupView hit = cache.lookup_into("k", 0.5, scratch);
  EXPECT_EQ(hit.outcome, LookupOutcome::kHit);
  EXPECT_EQ(hit.value, "fresh");
  LookupView expired = cache.lookup_into("k", 2.0, scratch);
  EXPECT_EQ(expired.outcome, LookupOutcome::kMiss);
  EXPECT_TRUE(expired.value.empty());
  EXPECT_EQ(cache.expired(), 1u);
  // Stale path still serves the value for low-fidelity drop replies.
  auto stale = cache.get_stale("k");
  ASSERT_TRUE(stale.has_value());
  EXPECT_EQ(*stale, "fresh");

  // A negative (cached error) entry answers kNegative with its value until
  // the negative TTL passes.
  CacheTuning tuning;
  tuning.negative_ttl = 0.5;
  StripedResultCache negatives(32, 1.0, 4, tuning);
  negatives.put_negative("bad", "backend error", 0.0);
  LookupView negative = negatives.lookup_into("bad", 0.25, scratch);
  EXPECT_EQ(negative.outcome, LookupOutcome::kNegative);
  EXPECT_EQ(negative.value, "backend error");
  EXPECT_EQ(negatives.lookup_into("bad", 1.0, scratch).outcome, LookupOutcome::kMiss);
}

TEST(StripedCacheTest, InvalidateAndClear) {
  StripedResultCache cache(32, 0.0, 4);
  cache.put("gone", "v", 0.0);
  EXPECT_TRUE(cache.invalidate("gone"));
  EXPECT_FALSE(cache.invalidate("gone"));
  cache.put("a", "1", 0.0);
  cache.put("b", "2", 0.0);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(StripedCacheTest, ConcurrentPutGetKeepsValueIntegrity) {
  // 4 writer/reader threads over a shared keyspace: every observed value
  // must match its key (no torn entries, no cross-key bleed), and the
  // hit/miss accounting must equal the number of probes.
  StripedResultCache cache(256, 0.0, 8);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 20000;
  constexpr int kKeys = 64;
  std::atomic<int> mismatches{0};
  std::atomic<uint64_t> probes{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Arena scratch;
      uint64_t rng = 1234567ULL * (t + 1);
      for (int op = 0; op < kOpsPerThread; ++op) {
        rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
        int k = static_cast<int>((rng >> 33) % kKeys);
        std::string key = nth("k", k);
        if (rng & 1) {
          cache.put(key, nth("v", k), 0.0);
        } else {
          probes.fetch_add(1, std::memory_order_relaxed);
          scratch.reset();
          LookupView v = cache.lookup_into(key, 1.0, scratch);
          bool hit = v.outcome == LookupOutcome::kHit;
          if ((hit && v.value != nth("v", k)) ||
              (!hit && v.outcome != LookupOutcome::kMiss)) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cache.hits() + cache.misses(), probes.load());
  EXPECT_LE(cache.size(), cache.max_resident());
}

TEST(StripedCacheTest, TtlExpiryUnderConcurrentPutGet) {
  // Writers refresh keys with advancing timestamps while readers probe with
  // a clock far enough ahead that entries keep expiring: exercises the
  // expired-entry path under contention. The invariant is accounting-level:
  // every probe is classified exactly once.
  StripedResultCache cache(128, 0.5, 8);
  constexpr int kThreads = 4;
  constexpr int kOps = 10000;
  std::atomic<uint64_t> probes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Arena scratch;
      for (int op = 0; op < kOps; ++op) {
        std::string key = nth("k", op % 32);
        double now = static_cast<double>(op) * 0.01;
        if (t % 2 == 0) {
          cache.put(key, "v", now);
        } else {
          probes.fetch_add(1, std::memory_order_relaxed);
          // Probe 10 virtual seconds ahead: usually expired.
          scratch.reset();
          (void)cache.lookup_into(key, now + 10.0, scratch);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(cache.hits() + cache.misses(), probes.load());
  EXPECT_GT(cache.expired(), 0u);
}

TEST(StripedCacheTest, TwoThreadLookupIntoWithEvictingPuts) {
  // The sharded daemon's exact mix: shards probe through lookup_into (copy
  // under the stripe lock into a per-request arena) while misses insert
  // into full stripes, evicting entries other shards may be reading. The
  // keyspace is four times the capacity, so puts evict constantly and hits
  // race with eviction and (for hits outside the front quarter) promotion.
  StripedResultCache cache(64, 0.0, 4);
  constexpr int kThreads = 2;
  constexpr int kOps = 40000;
  constexpr int kKeys = 256;
  std::atomic<int> mismatches{0};
  std::atomic<uint64_t> probes{0};
  std::atomic<uint64_t> observed_hits{0};
  auto value_for = [](int k) {
    // Past the small-string buffer, so a torn copy cannot hide in SSO.
    return nth("value-for-key-", k) + std::string(48, static_cast<char>('a' + k % 26));
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Arena scratch;
      uint64_t rng = 0x5eed0000ULL + static_cast<uint64_t>(t);
      for (int op = 0; op < kOps; ++op) {
        rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
        int k = static_cast<int>((rng >> 33) % kKeys);
        std::string key = nth("key-", k);
        if ((rng >> 20) % 4 == 0) {
          cache.put(key, value_for(k), 0.0);
          continue;
        }
        scratch.reset();
        probes.fetch_add(1, std::memory_order_relaxed);
        LookupView v = cache.lookup_into(key, 1.0, scratch);
        if (v.outcome == LookupOutcome::kHit) {
          observed_hits.fetch_add(1, std::memory_order_relaxed);
          if (v.value != value_for(k)) mismatches.fetch_add(1, std::memory_order_relaxed);
        } else if (v.outcome != LookupOutcome::kMiss || !v.value.empty()) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cache.hits() + cache.misses(), probes.load());
  EXPECT_EQ(cache.hits(), observed_hits.load());
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.misses(), 0u);
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_LE(cache.size(), cache.max_resident());
}

/// Keys that all land in one stripe of an N-stripe cache, built by probing
/// the same hash the cache's stripe selector uses.
std::vector<std::string> same_stripe_keys(size_t stripes, size_t count) {
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < count; ++i) {
    std::string key = nth("skew-", i);
    if (std::hash<std::string_view>{}(key) % stripes == 0) {
      keys.push_back(std::move(key));
    }
  }
  return keys;
}

TEST(StripedCacheTest, AdversarialSkewBoundedByPerStripeCapacity) {
  // Every key is crafted to hash into stripe 0: the worst case the striped
  // design admits. The other stripes stay empty, so the resident count must
  // stay within one stripe's share of the capacity, not drift toward the
  // full capacity with one mutex in front of it.
  constexpr size_t kCapacity = 64;
  constexpr size_t kStripes = 8;
  StripedResultCache cache(kCapacity, 0.0, kStripes);
  for (const std::string& key : same_stripe_keys(kStripes, 100)) {
    cache.put(key, "v", 0.0);
  }
  EXPECT_EQ(cache.size(), kCapacity / kStripes);
  EXPECT_GT(cache.evictions(), 0u);
}

TEST(StripedCacheTest, GetStaleServesExpiredButNotEvictedEntries) {
  // The stale-on-drop path must distinguish the two ways an entry stops
  // being fresh: expiry keeps the bytes resident (servable at low fidelity),
  // eviction removes them (nothing to serve). Same-stripe keys make the
  // eviction deterministic.
  constexpr size_t kStripes = 4;
  std::vector<std::string> keys = same_stripe_keys(kStripes, 9);
  StripedResultCache cache(32, 1.0, kStripes);  // 8 entries per stripe

  cache.put(keys[0], "survivor", 0.0);
  Arena scratch;
  EXPECT_EQ(cache.lookup_into(keys[0], 5.0, scratch).outcome,
            LookupOutcome::kMiss);                     // expired...
  EXPECT_EQ(cache.get_stale(keys[0]), "survivor");    // ...but servable

  // Fill the victim's stripe past capacity: keys[0] is the LRU entry there.
  for (size_t i = 1; i < keys.size(); ++i) {
    cache.put(keys[i], "filler", 6.0);
  }
  EXPECT_FALSE(cache.get_stale(keys[0]).has_value());  // evicted: gone
  EXPECT_EQ(cache.get_stale(keys[1]), "filler");       // survivor unaffected
}

TEST(StripedCacheTest, ConcurrentStaleProbesElectOneRefresher) {
  // The cross-shard half of "exactly one background refresh": N threads
  // probe the same stale-in-grace key at once and exactly one may win the
  // kStaleRefresh claim, no matter how the stripe lock interleaves them.
  CacheTuning tuning;
  tuning.swr_grace = 1.0;
  StripedResultCache cache(32, 1.0, 4, tuning);
  cache.put("hot", "v1", 0.0);

  constexpr int kThreads = 8;
  std::atomic<int> refreshers{0};
  std::atomic<int> stale_serves{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      Arena scratch;
      LookupView r = cache.lookup_into("hot", 1.5, scratch);  // in the grace window
      if (r.outcome == LookupOutcome::kStaleRefresh) ++refreshers;
      if (r.outcome == LookupOutcome::kStaleServe) ++stale_serves;
      EXPECT_EQ(r.value, "v1");
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(refreshers.load(), 1);
  EXPECT_EQ(stale_serves.load(), kThreads - 1);
}

// ---------------------------------------------------------------------------
// The two share_* hooks the sharded daemon installs.

std::shared_ptr<Backend> never_completing_backend() {
  struct Silent : Backend {
    void invoke(const Call&, Completion) override {}  // never answers
  };
  return std::make_shared<Silent>();
}

TEST(SharedLoadTest, AdmissionAppliesToGlobalLoadAcrossBrokers) {
  // Two broker shards share one LoadTracker. Saturating shard A must make
  // shard B drop low-priority work even though B itself is idle — the
  // paper's threshold applies to the service, not to one shard's slice.
  BrokerConfig cfg;
  cfg.rules = QosRules{3, 6.0};
  cfg.enable_cache = false;
  ServiceBroker a("shard-a", cfg);
  ServiceBroker b("shard-b", cfg);
  auto load = std::make_shared<LoadTracker>();
  a.share_load(load);
  b.share_load(load);
  a.add_backend(never_completing_backend());
  b.add_backend(never_completing_backend());

  auto request = [](uint64_t id, int level) {
    http::BrokerRequest r;
    r.request_id = id;
    r.qos_level = static_cast<uint8_t>(level);
    r.payload = nth("q", id);
    return r;
  };

  // Fill the global window through shard A (class 3 bound = threshold = 6).
  for (uint64_t i = 0; i < 6; ++i) {
    a.submit(0.0, request(i, 3), [](const http::BrokerReply&) {});
  }
  EXPECT_EQ(load->outstanding(), 6);

  // Shard B has zero local outstanding, but the global count is at the
  // threshold: a class-3 request must be dropped.
  bool dropped = false;
  b.submit(0.0, request(100, 3), [&](const http::BrokerReply& reply) {
    dropped = reply.fidelity == http::Fidelity::kBusy;
  });
  EXPECT_TRUE(dropped);
  EXPECT_EQ(b.outstanding(), 0u);

  // Without sharing (fresh broker), the same request would be admitted.
  ServiceBroker lone("lone", cfg);
  lone.add_backend(never_completing_backend());
  bool admitted = true;
  lone.submit(0.0, request(101, 3), [&](const http::BrokerReply& reply) {
    admitted = reply.fidelity != http::Fidelity::kBusy;
  });
  EXPECT_EQ(lone.outstanding(), 1u);  // forwarded, still pending
  (void)admitted;
}

TEST(SharedCacheTest, ResultFetchedByOneBrokerServesAnother) {
  struct Echo : Backend {
    void invoke(const Call& call, Completion done) override {
      done(0.0, true, "result:" + call.payload);
    }
  };
  BrokerConfig cfg;
  cfg.enable_cache = true;
  ServiceBroker a("shard-a", cfg);
  ServiceBroker b("shard-b", cfg);
  auto shared = std::make_shared<StripedResultCache>(64, 30.0, 4);
  a.share_cache(shared);
  b.share_cache(shared);
  a.add_backend(std::make_shared<Echo>());
  b.add_backend(std::make_shared<Echo>());

  http::BrokerRequest req;
  req.request_id = 1;
  req.qos_level = 3;
  req.payload = "SELECT 1";

  http::Fidelity first = http::Fidelity::kError;
  a.submit(0.0, req, [&](const http::BrokerReply& r) { first = r.fidelity; });
  EXPECT_EQ(first, http::Fidelity::kFull);

  req.request_id = 2;
  http::Fidelity second = http::Fidelity::kError;
  std::string payload;
  b.submit(0.1, req, [&](const http::BrokerReply& r) {
    second = r.fidelity;
    payload = r.payload;
  });
  EXPECT_EQ(second, http::Fidelity::kCached);
  EXPECT_EQ(payload, "result:SELECT 1");
}

}  // namespace
}  // namespace sbroker::core
