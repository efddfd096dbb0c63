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
// `ResultCacheBase` is the interface the broker programs against; the
// single-threaded `ResultCache` here is the default implementation, and
// `StripedResultCache` (striped_cache.h) is the thread-safe one shared by
// the shards of a multi-threaded broker daemon.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

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

/// Classified result of ResultCacheBase::lookup_into().
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

/// Interface over the result cache: everything the broker data path and the
/// benchmark harnesses touch. Keys are `string_view` so hot-path probes do
/// not allocate. Implementations state their own thread-safety.
class ResultCacheBase {
 public:
  virtual ~ResultCacheBase() = default;

  /// The one classified read: distinguishes fresh hits, negative hits and
  /// grace-window stale values, and atomically assigns the single refresh
  /// claim for a stale entry (kStaleRefresh for exactly one caller per grace
  /// window — under the striped cache this claim is cross-shard). A fresh
  /// hit may refresh the entry's LRU position. The value is copied into
  /// `scratch` (for the striped cache, under the stripe lock — a raw view
  /// would race with eviction by other shards once the lock drops).
  virtual LookupView lookup_into(std::string_view key, double now, Arena& scratch) = 0;

  /// Stale-permitted lookup: returns the value even when expired (used for
  /// low-fidelity replies). Negative entries are never served stale. Does
  /// not count as a hit and does not refresh LRU.
  virtual std::optional<std::string> get_stale(std::string_view key) const = 0;

  /// Inserts/overwrites; evicts the LRU entry when full. Last-write-wins on
  /// `now`: a put carrying an older timestamp than the resident entry's
  /// stored_at is discarded (a slow prefetch response must not clobber a
  /// newer demand-fetched value).
  virtual void put(std::string_view key, std::string value, double now) = 0;

  /// Caches a backend error reply with the (short) negative TTL. No-op when
  /// negative caching is disabled or when a positive entry holds the key —
  /// stale truth beats fresh failure.
  virtual void put_negative(std::string_view key, std::string value,
                            double now) = 0;

  virtual size_t size() const = 0;

  virtual uint64_t hits() const = 0;
  virtual uint64_t misses() const = 0;
  virtual uint64_t expired() const = 0;
  virtual uint64_t evictions() const = 0;

  double hit_ratio() const {
    uint64_t total = hits() + misses();
    return total == 0 ? 0.0
                      : static_cast<double>(hits()) / static_cast<double>(total);
  }
};

/// Sentinel magnitude for "never claimed" / "never expires" times.
inline constexpr double kClaimInf = 1e300;

/// Single-threaded LRU+TTL cache. `final` so direct calls devirtualize.
///
/// Promotion on hit is gated: an entry still among the most recent
/// `max(1, capacity/4)` moves to the front stays where it is, so a hot
/// working set that fits in the front quarter is served without writing the
/// list. Eviction order is exact LRU for entries outside that front quarter;
/// inside it, recency is approximate (a hit there does not reorder).
class ResultCache final : public ResultCacheBase {
 public:
  /// `capacity` entries; `ttl` seconds of freshness (<=0 disables expiry).
  ResultCache(size_t capacity, double ttl);
  /// `salt` is mixed into the TTL-jitter hash (ttl_salt(); 0 = unsalted).
  ResultCache(size_t capacity, double ttl, CacheTuning tuning,
              uint64_t salt = 0);

  LookupView lookup_into(std::string_view key, double now, Arena& scratch) override;
  std::optional<std::string> get_stale(std::string_view key) const override;
  void put(std::string_view key, std::string value, double now) override;
  void put_negative(std::string_view key, std::string value, double now) override;

  size_t size() const override { return map_.size(); }
  const CacheTuning& tuning() const { return tuning_; }

  uint64_t hits() const override { return hits_; }
  uint64_t misses() const override { return misses_; }
  uint64_t expired() const override { return expired_; }
  uint64_t evictions() const override { return evictions_; }

  /// Effective TTL for `key` after jitter: ttl * (1 ± ttl_jitter), keyed by
  /// a hash of the key so it is stable across refreshes. Exposed for tests.
  double effective_ttl(std::string_view key) const;

 private:
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
    /// Value of seq_ when this entry last moved to the front. At most
    /// `seq_ - promoted_at` other entries have moved in front of it since,
    /// which bounds its distance from the front.
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

  bool fresh(const Entry& e, double now) const { return now <= e.expires_at; }
  /// Fresh-hit bookkeeping: counts the hit and promotes the entry only when
  /// it has left the front window.
  void touch(Slot it);
  void move_to_front(Slot it);
  void store(std::string_view key, std::string value, double now,
             bool negative, double ttl_for_entry);

  // Counters come first: StripedResultCache places its stripe mutex right
  // before this object, so a hit's counter write lands on the cache line the
  // lock already owns instead of dirtying a second one.
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t expired_ = 0;
  uint64_t evictions_ = 0;
  size_t capacity_;
  /// Moves to the front an entry may lag behind and still count as recent:
  /// max(1, capacity/4).
  uint64_t front_window_;
  /// Moves to the front so far (inserts, overwrites, promotions).
  uint64_t seq_ = 0;
  double ttl_;
  CacheTuning tuning_;
  uint64_t salt_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::string, Slot, KeyHash, std::equal_to<>> map_;
};

}  // namespace sbroker::core
