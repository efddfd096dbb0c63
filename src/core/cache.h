// Result cache.
//
// "Since service brokers receive all the query results from the same
// backend servers, they can cache some of the results to serve similar
// requests" (Section III). Entries are keyed by the canonical query text,
// bounded by entry count with LRU eviction, and expire after a TTL. A
// *stale* lookup path exists for the degraded reply the distributed model
// sends on admission drops: "cached results from previous queries with lower
// fidelity" (Section IV).
//
// Anti-stampede machinery lives here too (CacheTuning):
//   * stale-while-revalidate — within a grace window past expiry,
//     lookup_into() serves the stale value and hands exactly one caller a
//     refresh claim;
//   * per-key TTL jitter — co-inserted keys de-synchronize their expiries
//     instead of turning every hot key into a periodic miss storm;
//   * negative entries — backend error replies cached for a short TTL so a
//     failing hot key cannot stampede the backend either.
//
// One class serves both owners. A broker's private cache has one stripe: one
// LRU order and one salt, which is what the simulator's outputs depend on.
// The sharded broker daemon shares one cache of `net::kCacheStripes` stripes
// among its shard threads: a result fetched through shard A must serve the
// identical request arriving at shard B, or sharding divides the hit rate by
// the shard count.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/arena.h"

namespace sbroker::core {

/// Anti-stampede knobs; the all-zero default reproduces the plain LRU+TTL
/// behaviour exactly.
struct CacheTuning {
  /// Seconds past expiry during which lookup_into() still serves the stale
  /// value (kStaleRefresh/kStaleServe). 0 disables stale-while-revalidate.
  double swr_grace = 0.0;
  /// Fractional ±jitter applied to each entry's TTL, keyed by a hash of the
  /// entry key so it is deterministic per key. 0.1 = ±10%. 0 disables.
  double ttl_jitter = 0.0;
  /// TTL for negative (error-reply) entries, seconds. 0 disables negative
  /// caching entirely (put_negative becomes a no-op).
  double negative_ttl = 0.0;
};

/// Salt for a cache's per-key TTL-jitter hash, derived from the owner's run
/// seed. Without it every cache instance jitters identically (same key ->
/// same effective TTL on every broker), so a federation's members would
/// still expire a hot key in lockstep; with it they de-synchronize while
/// staying reproducible from the seed alone.
uint64_t ttl_salt(uint64_t rng_seed);

/// Classified result of ResultCache::lookup_into().
enum class LookupOutcome {
  kMiss,          ///< nothing servable; caller must fetch
  kHit,           ///< fresh positive value
  kNegative,      ///< fresh negative (cached backend error) value
  kStaleServe,    ///< stale-within-grace value; refresh already claimed
  kStaleRefresh,  ///< stale-within-grace value; caller won the refresh claim
};

/// lookup_into() result: the value lives in the caller's arena (valid until
/// its reset), so the hot path serves a hit with zero heap allocations.
struct LookupView {
  LookupOutcome outcome = LookupOutcome::kMiss;
  std::string_view value;  ///< empty view on kMiss
};

/// Sentinel magnitude for "never claimed" / "never expires" times.
inline constexpr double kClaimInf = 1e300;

/// LRU+TTL cache over K independently locked stripes. A key maps to one
/// stripe by hash, and every operation runs under that stripe's lock, so the
/// cache is thread-safe and probes for different keys rarely contend. Keys
/// are `string_view` so hot-path probes do not allocate.
///
/// Capacity is split across stripes (ceil(capacity / stripes) each), so the
/// resident count stays within max_resident() under any hash skew. LRU order
/// is per stripe, which is exact for one stripe and approximate with respect
/// to the global access order for more.
///
/// Promotion on hit is gated: an entry still among the most recent
/// `max(1, Cs/4)` moves to the front of its stripe (Cs = per-stripe
/// capacity) stays where it is, so a hot working set that fits in the front
/// quarter is served without writing the list. The eviction bound: an entry
/// stays resident until more than `Cs - max(1, Cs/4)` distinct other keys of
/// its stripe have been stored or fresh-hit since its own last store or hit.
class ResultCache {
 public:
  /// `capacity` entries in total over `stripes` locks (clamped to
  /// [1, capacity]); `ttl` seconds of freshness (<=0 disables expiry);
  /// `salt` is mixed into the TTL-jitter hash (ttl_salt(); 0 = unsalted),
  /// the same for every stripe.
  ResultCache(size_t capacity, double ttl, size_t stripes = 1,
              CacheTuning tuning = {}, uint64_t salt = 0);
  // Shard threads share one instance by address.
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// The one classified read: distinguishes fresh hits, negative hits and
  /// grace-window stale values, and assigns the single refresh claim for a
  /// stale entry under the stripe lock (kStaleRefresh for exactly one caller
  /// per grace window, whichever shard it runs on). A fresh hit may refresh
  /// the entry's LRU position. The value is copied into `scratch` while the
  /// lock is held: a raw view would race with eviction by other shards.
  LookupView lookup_into(std::string_view key, double now, Arena& scratch);

  /// Stale-permitted lookup: returns the value even when expired (used for
  /// low-fidelity replies). Negative entries are never served stale. Does
  /// not count as a hit and does not refresh LRU.
  std::optional<std::string> get_stale(std::string_view key) const;

  /// Inserts/overwrites; evicts the stripe's LRU entry when the stripe is
  /// full. Last-write-wins on `now`: a put carrying an older timestamp than
  /// the resident entry's stored_at is discarded (a slow prefetch response
  /// must not clobber a newer demand-fetched value).
  void put(std::string_view key, std::string value, double now);

  /// Caches a backend error reply with the (short) negative TTL. No-op when
  /// negative caching is disabled or when a positive entry holds the key —
  /// stale truth beats fresh failure.
  void put_negative(std::string_view key, std::string value, double now);

  /// Totals over the stripes (each read under its stripe's lock).
  size_t size() const;
  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t expired() const;
  uint64_t evictions() const;
  double hit_ratio() const;

  /// Hard bound on size() regardless of hash skew.
  size_t max_resident() const { return per_stripe_capacity_ * stripes_.size(); }

  /// Effective TTL for `key` after jitter: ttl * (1 ± ttl_jitter), keyed by
  /// a hash of the key so it is stable across refreshes. Exposed for tests.
  double effective_ttl(std::string_view key) const;

 private:
  static constexpr size_t kCacheLine = 64;

  struct Entry {
    std::string key;
    std::string value;
    double stored_at = 0.0;
    double expires_at = 0.0;  ///< absolute; +inf when expiry is disabled
    bool negative = false;
    /// Time the in-grace refresh was claimed; reclaimable once swr_grace
    /// has passed since the claim (a claimed refresh that never lands must
    /// not wedge the key). Cleared by put().
    double refresh_claimed_at = -kClaimInf;
    /// Value of its stripe's `seq` when this entry last moved to the front.
    /// At most `seq - promoted_at` other entries have moved in front of it
    /// since, which bounds its distance from the front.
    uint64_t promoted_at = 0;
  };
  using Slot = std::list<Entry>::iterator;

  // Transparent hash/equal: lookup_into()/get_stale() probe with the request
  // payload as a string_view without materializing a temporary std::string.
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  /// One lock and the LRU+TTL state it guards. Line-aligned so no two
  /// stripes share a line, with the mutex first and the hit and miss
  /// counters right behind it: a fresh hit writes the line the lock already
  /// owns, and gated promotion leaves the list alone for entries in the
  /// front quarter, so shards hitting the same hot keys contend only on the
  /// lock word.
  struct alignas(kCacheLine) Stripe {
    mutable std::mutex mu;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t expired = 0;
    uint64_t evictions = 0;
    /// Moves to the front so far (inserts, overwrites, promotions).
    uint64_t seq = 0;
    std::list<Entry> lru;  // front = most recent
    std::unordered_map<std::string, Slot, KeyHash, std::equal_to<>> map;
  };
  static_assert(sizeof(std::mutex) + 2 * sizeof(uint64_t) <= kCacheLine);

  /// A private cache has one stripe and skips the hash.
  size_t stripe_of(std::string_view key) const {
    return stripes_.size() == 1 ? 0 : KeyHash{}(key) % stripes_.size();
  }
  uint64_t sum(uint64_t Stripe::*counter) const;
  /// Fresh-hit bookkeeping: counts the hit and promotes the entry only when
  /// it has left the front window.
  void touch(Stripe& s, Slot it);
  static void move_to_front(Stripe& s, Slot it);
  void store(Stripe& s, std::string_view key, std::string value, double now,
             bool negative, double ttl_for_entry);

  std::vector<Stripe> stripes_;
  size_t per_stripe_capacity_;
  /// Moves to the front an entry may lag behind and still count as recent:
  /// max(1, per-stripe capacity / 4).
  uint64_t front_window_;
  double ttl_;
  CacheTuning tuning_;
  uint64_t salt_;
};

}  // namespace sbroker::core
