// Cross-shard single-flight registry.
//
// The result cache dedupes *completed* queries; this table dedupes the
// in-flight ones. The first broker shard to miss on a key claims the flight
// and performs the one backend fetch; every other shard that misses on the
// same key while the claim is held parks its requests locally and subscribes
// for the resolution. resolve() — called by the claim owner after the result
// (or error) has been published to the shared cache — fires each subscriber
// exactly once, outside the stripe lock.
//
// Single-threaded brokers use a private table (claims then always succeed,
// and the same structure carries the local waiter bookkeeping); the sharded
// daemon shares one table across shards the same way it shares the result
// cache. Mutex-striped by key hash like ResultCache: the table is touched
// only on cache misses, never on the hit path.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace sbroker::core {

class FlightTable {
 public:
  /// Fired (once) when the flight for `key` resolves. May run on the
  /// resolving shard's thread — implementations must be thread-safe and
  /// cheap (the brokers enqueue the key and poke their own reactor).
  using Notify = std::function<void(const std::string& key)>;

  explicit FlightTable(size_t stripes = 8);

  /// Attempts to become the fetch owner for `key`. Returns true when the
  /// caller won (it must eventually resolve()); false when another shard
  /// already holds the claim, in which case `notify` is parked and fires at
  /// resolution.
  bool claim(const std::string& key, Notify notify);

  /// Ends the flight: clears the claim and fires every parked subscriber.
  /// No-op when the key holds no claim.
  void resolve(const std::string& key);

  uint64_t claims() const { return claims_.load(std::memory_order_relaxed); }
  uint64_t parked() const { return parked_.load(std::memory_order_relaxed); }
  uint64_t resolves() const { return resolves_.load(std::memory_order_relaxed); }
  /// Keys currently claimed (snapshot; races with concurrent claims).
  size_t in_flight() const;

 private:
  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<std::string, std::vector<Notify>> flights;
  };

  Stripe& stripe_for(const std::string& key) const {
    return *stripes_[std::hash<std::string_view>{}(key) % stripes_.size()];
  }

  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::atomic<uint64_t> claims_{0};
  std::atomic<uint64_t> parked_{0};
  std::atomic<uint64_t> resolves_{0};
};

}  // namespace sbroker::core
