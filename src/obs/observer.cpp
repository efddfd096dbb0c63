#include "obs/observer.h"

namespace sbroker::obs {

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kBatchWait: return "batch_wait";
    case Stage::kQueueWait: return "queue_wait";
    case Stage::kChannelRtt: return "channel_rtt";
    case Stage::kTotal: return "total";
  }
  return "unknown";
}

BrokerObserver::BrokerObserver(const ObsConfig& config, int num_levels)
    : config_(config),
      num_levels_(num_levels < 1 ? 1 : num_levels),
      histograms_(static_cast<size_t>(num_levels_) * kNumStages),
      recorder_(config.trace ? kTraceCapacity : 0) {}

LatencyHistogram BrokerObserver::merged_histogram(Stage stage) const {
  LatencyHistogram out;
  for (int level = 1; level <= num_levels_; ++level) {
    out.merge(histograms_[slot(level, stage)]);
  }
  return out;
}

void BrokerObserver::merge(const BrokerObserver& other) {
  int levels = other.num_levels_ < num_levels_ ? other.num_levels_ : num_levels_;
  for (int level = 1; level <= levels; ++level) {
    for (size_t s = 0; s < kNumStages; ++s) {
      histograms_[slot(level, static_cast<Stage>(s))].merge(
          other.histograms_[other.slot(level, static_cast<Stage>(s))]);
    }
  }
}

}  // namespace sbroker::obs
