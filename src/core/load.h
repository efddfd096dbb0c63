// Shared outstanding-request counter for admission under sharding.
//
// The paper's threshold rule compares a QoS class bound against "the number
// of the outstanding requests" at the broker (Section V-B-1). When the
// broker is sharded across N reactor threads, each shard seeing only its own
// outstanding count would multiply every admission bound by N and let load
// N times the configured threshold through. All shards therefore debit and
// credit one atomic counter, and every shard's OverloadController decides
// against the *global* load.
//
// Relaxed ordering is sufficient: the counter is a load estimate feeding a
// threshold comparison, not a synchronization point; admission was already
// approximate across the instants of concurrent arrivals.
#pragma once

#include <atomic>
#include <cstdint>

namespace sbroker::core {

class LoadTracker {
 public:
  void inc() { outstanding_.fetch_add(1, std::memory_order_relaxed); }
  void dec() { outstanding_.fetch_sub(1, std::memory_order_relaxed); }

  int64_t outstanding() const {
    return outstanding_.load(std::memory_order_relaxed);
  }
  double load() const { return static_cast<double>(outstanding()); }

 private:
  std::atomic<int64_t> outstanding_{0};
};

}  // namespace sbroker::core
