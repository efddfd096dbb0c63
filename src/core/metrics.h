// Per-class broker metrics.
//
// Counters only: completed requests per class (Table I) and drop ratios per
// broker per class (Tables II-IV). Latencies are recorded by
// obs::LatencyHistogram — the broker's in its obs::BrokerObserver, the
// clients' in the wl recorders.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/backend.h"
#include "core/overload.h"

namespace sbroker::core {

class BrokerMetrics {
 public:
  explicit BrokerMetrics(int num_levels = 3) : per_class_(static_cast<size_t>(num_levels)) {}

  struct ClassCounters {
    uint64_t issued = 0;      ///< requests submitted to the broker
    uint64_t forwarded = 0;   ///< sent to a backend
    uint64_t dropped = 0;     ///< shed with busy/stale reply (admission,
                              ///< saturation, or deadline expiry)
    uint64_t cache_hits = 0;  ///< served from the result cache
    uint64_t completed = 0;   ///< replies delivered (any fidelity)
    uint64_t errors = 0;      ///< backend failures surfaced to the client
    uint64_t deadline_misses = 0;  ///< deadline-expired sheds (subset of dropped)
    uint64_t lifo_sheds = 0;  ///< deadline sheds taken while the class queue
                              ///< ran LIFO (subset of deadline_misses)
    uint64_t retries = 0;     ///< broker-level re-dispatches to another replica

    /// Field-wise sum; the one place that lists every per-class counter.
    void merge(const ClassCounters& other) {
      issued += other.issued;
      forwarded += other.forwarded;
      dropped += other.dropped;
      cache_hits += other.cache_hits;
      completed += other.completed;
      errors += other.errors;
      deadline_misses += other.deadline_misses;
      lifo_sheds += other.lifo_sheds;
      retries += other.retries;
    }

    double drop_ratio() const {
      return issued == 0 ? 0.0
                         : static_cast<double>(dropped) / static_cast<double>(issued);
    }
  };

  int num_levels() const { return static_cast<int>(per_class_.size()); }

  ClassCounters& at(int level) {
    return per_class_.at(static_cast<size_t>(clamp(level)) - 1);
  }
  const ClassCounters& at(int level) const {
    return per_class_.at(static_cast<size_t>(clamp(level)) - 1);
  }

  /// Aggregates across classes.
  ClassCounters total() const {
    ClassCounters t;
    for (const auto& c : per_class_) t.merge(c);
    return t;
  }

  /// Request-lifecycle events that are not per-class: exchange abandonment
  /// and replica-health transitions. Maintained by the broker, merged across
  /// shards like everything else.
  struct LifecycleStats {
    uint64_t cancellations = 0;     ///< in-flight exchanges abandoned at expiry
    uint64_t late_completions = 0;  ///< backend answers after the broker gave up
    uint64_t ejections = 0;         ///< replica ejections (incl. failed probes)
    uint64_t recoveries = 0;        ///< replicas recovered via half-open probe
    uint64_t probes = 0;            ///< half-open probe requests issued

    void merge(const LifecycleStats& other) {
      cancellations += other.cancellations;
      late_completions += other.late_completions;
      ejections += other.ejections;
      recoveries += other.recoveries;
      probes += other.probes;
    }
  };

  /// Anti-stampede counters, not per-class: how much backend work the
  /// single-flight / stale-while-revalidate layer absorbed or deferred.
  struct FlightStats {
    uint64_t coalesced_waiters = 0;  ///< misses attached to an in-flight fetch
    uint64_t swr_hits = 0;           ///< stale values served within the grace window
    uint64_t refreshes = 0;          ///< background revalidations issued
    uint64_t negative_hits = 0;      ///< errors answered from the negative cache
    uint64_t promotions = 0;         ///< waiters promoted to leader after a dead fetch

    void merge(const FlightStats& other) {
      coalesced_waiters += other.coalesced_waiters;
      swr_hits += other.swr_hits;
      refreshes += other.refreshes;
      negative_hits += other.negative_hits;
      promotions += other.promotions;
    }
  };

  /// Prefetches and stale refreshes, outside the per-class client counters.
  /// Drained, issued = completed + dropped (gate refusals and sheds) + failed.
  struct BackgroundStats {
    uint64_t issued = 0;
    uint64_t completed = 0;
    uint64_t dropped = 0;
    uint64_t failed = 0;

    void merge(const BackgroundStats& other) {
      issued += other.issued;
      completed += other.completed;
      dropped += other.dropped;
      failed += other.failed;
    }
  };

  /// Wire-level channel counters, filled in by the owner of the transport
  /// (the real-socket daemon folds its backends' ChannelStats in when it
  /// snapshots metrics). Always zero for pure-simulation brokers.
  ChannelStats transport;

  LifecycleStats lifecycle;

  FlightStats flight;

  BackgroundStats background;

  /// Overload-control feedback counters (overload.h), copied out of the
  /// shard's OverloadController at each evaluation.
  OverloadStats overload;

  /// Accumulates another broker's counters class-by-class — the sharded
  /// daemon folds its per-shard metrics into one report with this.
  void merge(const BrokerMetrics& other) {
    if (other.per_class_.size() > per_class_.size()) {
      per_class_.resize(other.per_class_.size());
    }
    for (size_t i = 0; i < other.per_class_.size(); ++i) {
      per_class_[i].merge(other.per_class_[i]);
    }
    transport.merge(other.transport);
    lifecycle.merge(other.lifecycle);
    flight.merge(other.flight);
    background.merge(other.background);
    overload.merge(other.overload);
  }

 private:
  int clamp(int level) const {
    if (level < 1) return 1;
    if (level > num_levels()) return num_levels();
    return level;
  }

  std::vector<ClassCounters> per_class_;
};

}  // namespace sbroker::core
