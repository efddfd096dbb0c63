#include "core/cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <ostream>
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

using enum LookupOutcome;

/// One lookup_into() with the value copied out of its arena, so a test
/// compares the whole classified answer: Probe{kHit, "v"}.
struct Probe {
  LookupOutcome outcome = kMiss;
  std::string value;
  bool operator==(const Probe&) const = default;
  friend std::ostream& operator<<(std::ostream& os, const Probe& p) {
    return os << "{outcome " << static_cast<int>(p.outcome) << ", \"" << p.value
              << "\"}";
  }
};

Probe probe(ResultCache& cache, std::string_view key, double now) {
  Arena scratch;
  LookupView looked = cache.lookup_into(key, now, scratch);
  return {looked.outcome, std::string(looked.value)};
}

TEST(Cache, PutGetRoundTrip) {
  ResultCache cache(4, 10.0);
  cache.put("k", "v", 0.0);
  EXPECT_EQ(probe(cache, "k", 1.0), (Probe{kHit, "v"}));
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(Cache, MissOnAbsentKey) {
  ResultCache cache(4, 10.0);
  EXPECT_EQ(probe(cache, "nope", 0.0), Probe{});
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, TtlExpiry) {
  ResultCache cache(4, 5.0);
  cache.put("k", "v", 0.0);
  EXPECT_EQ(probe(cache, "k", 5.0), (Probe{kHit, "v"}));  // exactly at TTL: fresh
  EXPECT_EQ(probe(cache, "k", 5.01), Probe{});             // past TTL: expired
  EXPECT_EQ(cache.expired(), 1u);
}

TEST(Cache, ZeroTtlDisablesExpiry) {
  ResultCache cache(4, 0.0);
  cache.put("k", "v", 0.0);
  EXPECT_EQ(probe(cache, "k", 1e9), (Probe{kHit, "v"}));
}

TEST(Cache, StaleLookupServesExpiredEntries) {
  ResultCache cache(4, 1.0);
  cache.put("k", "v", 0.0);
  EXPECT_EQ(probe(cache, "k", 100.0), Probe{});
  EXPECT_EQ(cache.get_stale("k"), "v");
  EXPECT_FALSE(cache.get_stale("absent").has_value());
}

TEST(Cache, PutRefreshesExpiredEntryInPlace) {
  ResultCache cache(4, 1.0);
  cache.put("k", "old", 0.0);
  EXPECT_EQ(probe(cache, "k", 10.0), Probe{});
  cache.put("k", "new", 10.0);
  EXPECT_EQ(probe(cache, "k", 10.5), (Probe{kHit, "new"}));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(Cache, LruEvictionOrder) {
  ResultCache cache(2, 0.0);
  cache.put("a", "1", 0.0);
  cache.put("b", "2", 0.0);
  EXPECT_EQ(probe(cache, "a", 0.0), (Probe{kHit, "1"}));  // a becomes most recent
  cache.put("c", "3", 0.0);                                // evicts b
  EXPECT_EQ(probe(cache, "a", 0.0), (Probe{kHit, "1"}));
  EXPECT_EQ(probe(cache, "b", 0.0), Probe{});
  EXPECT_EQ(probe(cache, "c", 0.0), (Probe{kHit, "3"}));
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(Cache, CapacityNeverExceeded) {
  ResultCache cache(3, 0.0);
  for (int i = 0; i < 100; ++i) {
    cache.put(nth("k", i), "v", 0.0);
    EXPECT_LE(cache.size(), 3u);
  }
  EXPECT_EQ(cache.evictions(), 97u);
}

TEST(Cache, OverwriteDoesNotGrow) {
  ResultCache cache(2, 0.0);
  cache.put("k", "1", 0.0);
  cache.put("k", "2", 1.0);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(probe(cache, "k", 1.0), (Probe{kHit, "2"}));
}

TEST(Cache, HitRatio) {
  ResultCache cache(4, 0.0);
  cache.put("k", "v", 0.0);
  EXPECT_EQ(probe(cache, "k", 0.0).outcome, kHit);
  EXPECT_EQ(probe(cache, "k", 0.0).outcome, kHit);
  EXPECT_EQ(probe(cache, "miss", 0.0).outcome, kMiss);
  EXPECT_EQ(probe(cache, "miss2", 0.0).outcome, kMiss);
  EXPECT_DOUBLE_EQ(cache.hit_ratio(), 0.5);
}

// ---------------------------------------------------------------------------
// Anti-stampede machinery: classified lookup, stale-while-revalidate claims,
// last-write-wins puts, TTL jitter and negative caching.

TEST(Cache, LookupClassifiesMissHitAndExpiry) {
  ResultCache cache(4, 5.0);  // all-zero tuning: plain LRU+TTL behaviour
  EXPECT_EQ(probe(cache, "k", 0.0).outcome, kMiss);
  cache.put("k", "v", 0.0);
  Probe hit = probe(cache, "k", 1.0);
  EXPECT_EQ(hit.outcome, kHit);
  EXPECT_EQ(hit.value, "v");
  // Exactly at the TTL boundary the entry is still fresh.
  EXPECT_EQ(probe(cache, "k", 5.0).outcome, kHit);
  // Without a grace window, one tick past the TTL is a plain miss.
  EXPECT_EQ(probe(cache, "k", 5.01).outcome, kMiss);
}

TEST(Cache, StaleWindowGrantsExactlyOneRefreshClaim) {
  CacheTuning tuning;
  tuning.swr_grace = 1.0;
  ResultCache cache(4, 1.0, /*stripes=*/1, tuning);
  cache.put("k", "v1", 0.0);

  // Inside the grace window [1, 2]: the first probe wins the refresh claim,
  // every later probe is served stale without one.
  Probe first = probe(cache, "k", 1.5);
  EXPECT_EQ(first.outcome, kStaleRefresh);
  EXPECT_EQ(first.value, "v1");
  EXPECT_EQ(probe(cache, "k", 1.6).outcome, kStaleServe);
  EXPECT_EQ(probe(cache, "k", 1.9).outcome, kStaleServe);
  // Past the grace window the value is gone for the fresh path.
  EXPECT_EQ(probe(cache, "k", 2.5).outcome, kMiss);

  // A put() (the refresh landing) clears the claim: the next stale window
  // hands out a fresh one.
  cache.put("k", "v2", 3.0);
  EXPECT_EQ(probe(cache, "k", 3.5).outcome, kHit);
  Probe again = probe(cache, "k", 4.5);
  EXPECT_EQ(again.outcome, kStaleRefresh);
  EXPECT_EQ(again.value, "v2");
}

TEST(Cache, LastWriteWinsDiscardsOlderTimestampedPut) {
  ResultCache cache(4, 10.0);
  cache.put("k", "demand-fresh", 5.0);
  // A slow prefetch stamped with its issue time must not clobber the newer
  // demand-fetched value...
  cache.put("k", "prefetch-stale", 3.0);
  EXPECT_EQ(probe(cache, "k", 6.0), (Probe{kHit, "demand-fresh"}));
  // ...while a genuinely newer write still lands.
  cache.put("k", "newer", 7.0);
  EXPECT_EQ(probe(cache, "k", 7.5), (Probe{kHit, "newer"}));
}

TEST(Cache, TtlJitterDecorrelatesExpiriesWithinBounds) {
  CacheTuning tuning;
  tuning.ttl_jitter = 0.1;
  ResultCache cache(256, 100.0, /*stripes=*/1, tuning);
  double lo = 1e300, hi = 0.0;
  for (int i = 0; i < 64; ++i) {
    double ttl = cache.effective_ttl(nth("key-", i));
    EXPECT_GE(ttl, 90.0);
    EXPECT_LE(ttl, 110.0);
    lo = std::min(lo, ttl);
    hi = std::max(hi, ttl);
  }
  EXPECT_GT(hi - lo, 1.0);  // co-inserted keys actually spread out
  // The jittered TTL is stable per key (refreshes keep the same expiry
  // offset) and governs real expiry.
  EXPECT_DOUBLE_EQ(cache.effective_ttl("key-0"), cache.effective_ttl("key-0"));
  cache.put("key-0", "v", 0.0);
  double eff = cache.effective_ttl("key-0");
  EXPECT_EQ(probe(cache, "key-0", eff - 0.01), (Probe{kHit, "v"}));
  EXPECT_EQ(probe(cache, "key-0", eff + 0.01), Probe{});
}

TEST(Cache, NegativeEntriesServeFreshOnlyAndNeverStale) {
  CacheTuning tuning;
  tuning.negative_ttl = 1.0;
  tuning.swr_grace = 10.0;
  ResultCache cache(4, 100.0, /*stripes=*/1, tuning);
  cache.put_negative("k", "boom", 0.0);

  // The classified read names it a negative, never a hit, and the
  // stale-drop path refuses it.
  EXPECT_EQ(probe(cache, "k", 0.5), (Probe{kNegative, "boom"}));
  EXPECT_FALSE(cache.get_stale("k").has_value());
  // Past the (short) negative TTL the error stops answering — the grace
  // window never applies to a cached failure.
  EXPECT_EQ(probe(cache, "k", 1.5).outcome, kMiss);
}

TEST(Cache, PutNegativeIsNoopWithoutTuningOrOverPositiveData) {
  ResultCache plain(4, 10.0);  // negative_ttl = 0: disabled
  plain.put_negative("k", "boom", 0.0);
  EXPECT_EQ(probe(plain, "k", 0.1).outcome, kMiss);
  EXPECT_EQ(plain.size(), 0u);

  CacheTuning tuning;
  tuning.negative_ttl = 5.0;
  ResultCache cache(4, 1.0, /*stripes=*/1, tuning);
  cache.put("k", "truth", 0.0);
  // Fresh positive survives a failure report...
  cache.put_negative("k", "boom", 0.5);
  EXPECT_EQ(probe(cache, "k", 0.6), (Probe{kHit, "truth"}));
  // ...and so does a stale positive: get_stale still serves it on drops.
  cache.put_negative("k", "boom", 2.0);
  EXPECT_EQ(cache.get_stale("k"), "truth");
  // A negative entry, however, is upgraded in place by real data.
  cache.put_negative("gone", "boom", 0.0);
  cache.put("gone", "recovered", 1.0);
  EXPECT_EQ(probe(cache, "gone", 1.5), (Probe{kHit, "recovered"}));
}

// Property: under arbitrary interleavings, a fresh hit never carries a value
// older than TTL relative to the read time.
TEST(Cache, NeverServesStaleOnFreshPath) {
  ResultCache cache(8, 2.0);
  double now = 0.0;
  for (int i = 0; i < 1000; ++i) {
    std::string key = nth("k", i % 10);
    if (i % 3 == 0) cache.put(key, std::to_string(now), now);
    Probe looked = probe(cache, key, now);
    // No grace window and no negatives: every probe is a hit or a miss.
    ASSERT_TRUE(looked.outcome == kHit || looked.outcome == kMiss);
    if (looked.outcome == kHit) {
      double stored_at = std::stod(looked.value);
      EXPECT_LE(now - stored_at, 2.0);
    }
    now += 0.37;
  }
}

// ---------------------------------------------------------------------------
// Gated promotion: a hit moves an entry to the front only once it has left
// the most recent max(1, capacity/4) positions. get_stale() probes residency
// without touching recency, so it observes eviction order directly.


/// The one way a fresh hit reaches touch(): lookup_into.
void hit(ResultCache& cache, const std::string& key) {
  ASSERT_EQ(probe(cache, key, 0.0), (Probe{kHit, "v"})) << key;
}

TEST(Cache, HitOutsideFrontQuarterPromotesEntry) {
  constexpr int kCapacity = 16;
  ResultCache cache(kCapacity, 0.0);
  for (int i = 0; i < kCapacity; ++i) cache.put(nth("k", i), "v", 0.0);
  // k0 is the oldest entry, far outside the front quarter: the hit promotes.
  hit(cache, "k0");
  for (int i = 0; i < 3 * kCapacity / 4; ++i) {
    cache.put(nth("new", i), "v", 0.0);
    EXPECT_TRUE(cache.get_stale("k0").has_value()) << i;
    // Never-hit entries leave in insertion order: k1 first, then k2, ...
    EXPECT_FALSE(cache.get_stale(nth("k", i + 1)).has_value()) << i;
    EXPECT_TRUE(cache.get_stale(nth("k", i + 2)).has_value()) << i;
  }
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(Cache, HitInsideFrontQuarterLeavesOrderAlone) {
  constexpr int kCapacity = 16;
  constexpr int kWindow = kCapacity / 4;
  ResultCache cache(kCapacity, 0.0);
  for (int i = 0; i < kCapacity; ++i) cache.put(nth("k", i), "v", 0.0);
  // The newest kWindow entries are inside the front quarter; hitting them
  // (newest first, which a strict LRU would turn into reverse order)
  // writes nothing to the list, so eviction stays in insertion order.
  for (int i = kCapacity - 1; i >= kCapacity - kWindow; --i) hit(cache, nth("k", i));
  for (int i = 0; i < kCapacity; ++i) {
    cache.put(nth("new", i), "v", 0.0);
    EXPECT_FALSE(cache.get_stale(nth("k", i)).has_value()) << i;
    if (i + 1 < kCapacity) {
      EXPECT_TRUE(cache.get_stale(nth("k", i + 1)).has_value()) << i;
    }
  }
  // The eviction bound: an entry hit in the front quarter stays until more
  // than capacity - capacity/4 = 12 distinct other keys have been stored
  // since its hit (the oldest of them, k12, left on the 13th).
  EXPECT_EQ(cache.evictions(), static_cast<uint64_t>(kCapacity));
  EXPECT_EQ(cache.hits(), static_cast<uint64_t>(kWindow));
}

TEST(Cache, PromotionsPushAHitEntryBack) {
  // The bound counts distinct keys stored *or hit*, not inserts: an entry
  // hit inside the front window is pushed back by other entries'
  // promotions, so one insert can evict it.
  ResultCache cache(4, 0.0);
  for (int i = 0; i < 4; ++i) cache.put(nth("k", i), "v", 0.0);
  hit(cache, "k3");  // newest: inside the window, stays put
  for (int i = 0; i < 3; ++i) hit(cache, nth("k", i));  // each promotes
  cache.put("new", "v", 0.0);
  // Four distinct keys since k3's hit: more than 4 - max(1, 4/4) = 3.
  EXPECT_FALSE(cache.get_stale("k3").has_value());
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(cache.get_stale(nth("k", i)).has_value()) << i;
}

// ---------------------------------------------------------------------------
// Stripes: the same LRU+TTL semantics per stripe, plus the cross-shard
// guarantees the sharded daemon depends on — bounded total size under any
// hash skew and integrity under concurrent put/lookup_into.

TEST(StripedCacheTest, PutGetRoundTripAcrossManyKeys) {
  // Per-stripe capacity is 64 for 100 keys: no realistic hash skew puts 65
  // of them in one stripe, so no evictions interfere with the round trip.
  ResultCache cache(512, 0.0, 8);
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
  ResultCache cache(kCapacity, 0.0, kStripes);
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
  ResultCache tiny(3, 0.0, 16);  // more stripes than entries
  EXPECT_EQ(tiny.max_resident(), 3u);  // 3 stripes of 1, not 16
  tiny.put("a", "1", 0.0);
  tiny.put("b", "2", 0.0);
  EXPECT_EQ(tiny.size(), 2u);
}

TEST(StripedCacheTest, TtlExpiryAndStaleLookup) {
  ResultCache cache(32, 1.0, 4);
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
  ResultCache negatives(32, 1.0, 4, tuning);
  negatives.put_negative("bad", "backend error", 0.0);
  LookupView negative = negatives.lookup_into("bad", 0.25, scratch);
  EXPECT_EQ(negative.outcome, LookupOutcome::kNegative);
  EXPECT_EQ(negative.value, "backend error");
  EXPECT_EQ(negatives.lookup_into("bad", 1.0, scratch).outcome, LookupOutcome::kMiss);
}

TEST(StripedCacheTest, ConcurrentPutGetKeepsValueIntegrity) {
  // 4 writer/reader threads over a shared keyspace: every observed value
  // must match its key (no torn entries, no cross-key bleed), and the
  // hit/miss accounting must equal the number of probes.
  ResultCache cache(256, 0.0, 8);
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
  ResultCache cache(128, 0.5, 8);
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
  ResultCache cache(64, 0.0, 4);
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
  ResultCache cache(kCapacity, 0.0, kStripes);
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
  ResultCache cache(32, 1.0, kStripes);  // 8 entries per stripe

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
  ResultCache cache(32, 1.0, 4, tuning);
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
  auto shared = std::make_shared<ResultCache>(64, 30.0, 4);
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
