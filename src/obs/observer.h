// BrokerObserver: per-broker observability bundle.
//
// One observer lives inside every core::ServiceBroker (one per shard in the
// real daemon, one per host in the simulation) and carries the two new
// instruments: a LatencyHistogram per (QoS class, lifecycle stage) and a
// FlightRecorder of request events. The broker records into it from its
// timing marks (RequestContext submitted/batched/dispatched); everything is
// single-writer on the broker's own thread. Snapshots cross threads by
// copying the whole observer (a dozen small vectors) on the owning thread
// and merging the copies — the BrokerMetrics pattern.
//
// The histograms always record: they are the broker's one latency
// instrument, and the overload controller's feedback signal reads them. The
// flight recorder can be disabled in config; a disabled recorder allocates
// no ring and turns trace calls into an early return, which is the
// "compiled in but idle" baseline the overhead experiment compares against.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/histogram.h"
#include "obs/trace.h"

namespace sbroker::obs {

/// Request-lifecycle stages with their own latency distributions.
enum class Stage : uint8_t {
  kBatchWait = 0,  ///< submit -> cluster batch formed
  kQueueWait,      ///< batch formed -> first dispatch (QoS queue residency)
  kChannelRtt,     ///< dispatch -> backend exchange resolved
  kTotal,          ///< submit -> reply (all outcomes)
};
inline constexpr size_t kNumStages = 4;

const char* stage_name(Stage stage);

/// Flight-recorder ring slots (a power of 2) when tracing is on.
inline constexpr size_t kTraceCapacity = 4096;

struct ObsConfig {
  bool trace = true;  ///< request-event flight recorder
};

class BrokerObserver {
 public:
  BrokerObserver() : BrokerObserver(ObsConfig{}, 3) {}
  BrokerObserver(const ObsConfig& config, int num_levels);

  void record(int level, Stage stage, double seconds) {
    histograms_[slot(level, stage)].record_seconds(seconds);
  }

  void trace(double t, uint64_t request_id, TraceEventKind kind, uint8_t level,
             uint16_t detail = 0) {
    if (!config_.trace) return;
    recorder_.record(t, request_id, kind, level, detail);
  }

  const LatencyHistogram& histogram(int level, Stage stage) const {
    return histograms_[slot(level, stage)];
  }

  /// One distribution across all classes for `stage`.
  LatencyHistogram merged_histogram(Stage stage) const;

  /// Folds another observer's histograms in (cross-shard aggregation). The
  /// flight recorder is deliberately not merged: traces stay per-shard and
  /// are concatenated/sorted by the dump path instead.
  void merge(const BrokerObserver& other);

  int num_levels() const { return num_levels_; }
  const ObsConfig& config() const { return config_; }
  FlightRecorder& recorder() { return recorder_; }
  const FlightRecorder& recorder() const { return recorder_; }

 private:
  size_t slot(int level, Stage stage) const {
    if (level < 1) level = 1;
    if (level > num_levels_) level = num_levels_;
    return static_cast<size_t>(level - 1) * kNumStages +
           static_cast<size_t>(stage);
  }

  ObsConfig config_;
  int num_levels_;
  std::vector<LatencyHistogram> histograms_;  // level-major
  FlightRecorder recorder_;
};

}  // namespace sbroker::obs
