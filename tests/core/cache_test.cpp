#include "core/cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>

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

TEST(Cache, Invalidate) {
  ResultCache cache(4, 0.0);
  cache.put("k", "v", 0.0);
  EXPECT_TRUE(cache.invalidate("k"));
  EXPECT_FALSE(cache.invalidate("k"));
  EXPECT_EQ(probe(cache, "k", 0.0), Probe{});
}

TEST(Cache, Clear) {
  ResultCache cache(4, 0.0);
  cache.put("a", "1", 0.0);
  cache.put("b", "2", 0.0);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.get_stale("a").has_value());
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
  ResultCache cache(4, 1.0, tuning);
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
  ResultCache cache(256, 100.0, tuning);
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
  ResultCache cache(4, 100.0, tuning);
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
  ResultCache cache(4, 1.0, tuning);
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
  // The approximation's bound: an entry hit in the front quarter still
  // outlived 3*capacity/4 inserts after its hit (the oldest of them, k12,
  // left on the 13th).
  EXPECT_EQ(cache.evictions(), static_cast<uint64_t>(kCapacity));
  EXPECT_EQ(cache.hits(), static_cast<uint64_t>(kWindow));
}

}  // namespace
}  // namespace sbroker::core
