#include "core/hotspot.h"

namespace sbroker::core {

const char* load_state_name(LoadState s) {
  switch (s) {
    case LoadState::kNormal:
      return "normal";
    case LoadState::kWarm:
      return "warm";
    case LoadState::kHot:
      return "hot";
  }
  return "?";
}

HotSpotDetector::HotSpotDetector(HotSpotConfig config) : config_(config) {}

LoadState HotSpotDetector::observe(double outstanding) {
  if (!primed_) {
    ewma_ = outstanding;
    primed_ = true;
  } else {
    ewma_ = kHotSpotAlpha * outstanding + (1.0 - kHotSpotAlpha) * ewma_;
  }

  double warm_up = config_.warm_threshold;
  double hot_up = config_.hot_threshold;
  double warm_down = warm_up * (1.0 - kHotSpotHysteresis);
  double hot_down = hot_up * (1.0 - kHotSpotHysteresis);

  switch (state_) {
    case LoadState::kNormal:
      if (ewma_ >= hot_up) {
        move_to(LoadState::kHot);
      } else if (ewma_ >= warm_up) {
        move_to(LoadState::kWarm);
      }
      break;
    case LoadState::kWarm:
      if (ewma_ >= hot_up) {
        move_to(LoadState::kHot);
      } else if (ewma_ < warm_down) {
        move_to(LoadState::kNormal);
      }
      break;
    case LoadState::kHot:
      if (ewma_ < warm_down) {
        move_to(LoadState::kNormal);
      } else if (ewma_ < hot_down) {
        move_to(LoadState::kWarm);
      }
      break;
  }
  return state_;
}

void HotSpotDetector::move_to(LoadState next) {
  state_ = next;
  ++transitions_;
}

}  // namespace sbroker::core
