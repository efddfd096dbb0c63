// Prefetcher.
//
// "A news provider website periodically updates the online headlines.
// Service brokers can be synchronized to prefetch them when the server load
// is not high. So the requests for the news can be served immediately
// without accessing the backend servers" (Section III).
//
// The prefetcher holds a registry of (cache key, query, period) entries.
// The broker's tick() asks for due entries; an entry is issued only when the
// broker's current load is below the idle threshold, and its next due time
// advances whether or not the fetch succeeded (periodic refresh, not retry
// storm).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace sbroker::core {

struct PrefetchEntry {
  std::string cache_key;  ///< where the result is stored
  std::string payload;    ///< query sent to the backend
  double period;          ///< refresh interval, seconds
  double next_due = 0.0;
};

class Prefetcher {
 public:
  /// `idle_threshold`: maximum broker outstanding count at which prefetch
  /// traffic may be issued (the "server load is not high" condition).
  explicit Prefetcher(double idle_threshold = 1.0) : idle_threshold_(idle_threshold) {}

  /// Registers a periodic prefetch; first fetch is due immediately.
  void add(std::string cache_key, std::string payload, double period);

  /// Entries due at `now` given current load; advances the schedules of the
  /// entries returned. Empty when the broker is not idle enough.
  ///
  /// `max_issues` caps how many entries one call may return (0 = unbounded).
  /// After a long busy period every entry is overdue at once; the cap
  /// staggers the backlog across ticks — entries beyond it keep their past
  /// next_due and surface on subsequent calls — instead of firing the whole
  /// registry in one burst (exactly the "retry storm" this header promises
  /// to avoid).
  std::vector<PrefetchEntry> due(double now, double current_load,
                                 size_t max_issues = 0);

  /// Earliest next_due across entries; nullopt when none registered.
  std::optional<double> next_due() const;

  size_t size() const { return entries_.size(); }
  uint64_t issued() const { return issued_; }

 private:
  double idle_threshold_;
  std::vector<PrefetchEntry> entries_;
  uint64_t issued_ = 0;
};

}  // namespace sbroker::core
