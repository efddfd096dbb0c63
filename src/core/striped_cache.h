// Thread-safe striped result cache.
//
// The sharded broker daemon runs one single-threaded ServiceBroker per
// reactor thread, but the result cache must stay *global*: a result fetched
// through shard A has to serve the identical request arriving at shard B, or
// sharding divides the hit rate by the shard count. This wraps the existing
// LRU+TTL `ResultCache` logic in K independently-locked stripes. A key maps
// to one stripe by hash, so concurrent probes for different keys rarely
// contend, and the single-stripe critical section is exactly the old
// single-threaded code path.
//
// Capacity is divided across stripes (ceil(capacity / stripes) each), so the
// total resident entry count is bounded by `capacity + stripes - 1` in the
// worst hash skew. LRU is per-stripe: eviction order is approximate with
// respect to the global access order, which is the standard striped-LRU
// trade-off.
//
// A fresh hit writes one cache line: the stripe's own. Each stripe starts on
// a line boundary with the mutex first and the ResultCache hit counter
// right behind it, and ResultCache's gated promotion leaves the LRU list
// alone for entries in its front quarter. Shards hitting the same hot keys
// then contend only on the lock word, not on list nodes or a counter line.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "core/cache.h"

namespace sbroker::core {

class StripedResultCache final : public ResultCacheBase {
 public:
  /// `capacity` total entries split over `stripes` locks; `ttl` as ResultCache.
  StripedResultCache(size_t capacity, double ttl, size_t stripes = 8);
  /// `salt` as ResultCache: every stripe jitters with the same salt.
  StripedResultCache(size_t capacity, double ttl, size_t stripes,
                     CacheTuning tuning, uint64_t salt = 0);

  /// The stale-refresh claim is taken under the stripe lock, so exactly one
  /// shard per grace window wins kStaleRefresh for a key — the cross-shard
  /// half of "trigger exactly one background refresh". The value is copied
  /// into the caller's arena while the lock is held — a raw view into the
  /// entry would race with eviction by other shards.
  LookupView lookup_into(std::string_view key, double now, Arena& scratch) override;
  std::optional<std::string> get_stale(std::string_view key) const override;
  void put(std::string_view key, std::string value, double now) override;
  void put_negative(std::string_view key, std::string value, double now) override;

  size_t size() const override;

  uint64_t hits() const override;
  uint64_t misses() const override;
  uint64_t expired() const override;
  uint64_t evictions() const override;

  size_t stripes() const { return stripes_.size(); }
  /// Hard bound on size() regardless of hash skew.
  size_t max_resident() const { return per_stripe_capacity_ * stripes_.size(); }

 private:
  static constexpr size_t kCacheLine = 64;

  /// Line-aligned so no two stripes share a line; `cache` starts with its
  /// counters, so hits and misses are counted on the mutex's line.
  struct alignas(kCacheLine) Stripe {
    mutable std::mutex mu;
    ResultCache cache;
    Stripe(size_t cap, double ttl, CacheTuning tuning, uint64_t salt)
        : cache(cap, ttl, tuning, salt) {}
  };
  // mutex + ResultCache's vtable pointer + hits_ + misses_ fit in one line.
  static_assert(sizeof(std::mutex) + sizeof(void*) + 2 * sizeof(uint64_t) <=
                kCacheLine);

  Stripe& stripe_for(std::string_view key) const {
    return *stripes_[std::hash<std::string_view>{}(key) % stripes_.size()];
  }

  size_t per_stripe_capacity_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
};

}  // namespace sbroker::core
