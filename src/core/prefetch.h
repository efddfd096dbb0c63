// Prefetcher.
//
// "A news provider website periodically updates the online headlines.
// Service brokers can be synchronized to prefetch them when the server load
// is not high. So the requests for the news can be served immediately
// without accessing the backend servers" (Section III).
//
// The prefetcher holds a registry of (query, period) entries; a prefetched
// query is its own cache key, as every demand request is. The broker's
// tick() takes due entries only while its admission rule at the lowest QoS
// class admits background work (the "server load is not high" condition),
// so an entry that falls due during a busy spell is deferred, not skipped.
// Taking an entry advances its next due time whether or not the fetch then
// succeeds (periodic refresh, not retry storm).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace sbroker::core {

struct PrefetchEntry {
  std::string payload;    ///< query sent to the backend, and its cache key
  double period;          ///< refresh interval, seconds
  double next_due = 0.0;
};

class Prefetcher {
 public:
  /// Registers a periodic prefetch; first fetch is due immediately.
  void add(std::string payload, double period);

  /// The query of the first entry due at `now`, advancing that entry's
  /// schedule to `now + period`; nullopt when nothing is due. Calling it
  /// until nullopt takes every overdue entry exactly once.
  std::optional<std::string> take_due(double now);

  /// Earliest next_due across entries; nullopt when none registered.
  std::optional<double> next_due() const;

  size_t size() const { return entries_.size(); }
  uint64_t issued() const { return issued_; }

 private:
  std::vector<PrefetchEntry> entries_;
  uint64_t issued_ = 0;
};

}  // namespace sbroker::core
