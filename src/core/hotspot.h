// Hot-spot detection (paper Sections II-III).
//
// "When the traffic to the same backend server is beyond its capacity, a hot
// spot is generated and this backend server is likely to become bottleneck
// of the entire request handling process. ... Service brokers can notify
// request schedulers about the onset of hot spots or respond to the requests
// with lower fidelity results."
//
// The detector tracks an exponentially weighted moving average of the
// broker's outstanding count (sampled at every observation) and classifies
// the backend as NORMAL / WARM / HOT against two thresholds, with hysteresis
// (a band below each threshold must be crossed to de-escalate) so the state
// does not flap at the boundary. The query rewriter reads state();
// transitions() counts the state changes.
#pragma once

#include <cstdint>

namespace sbroker::core {

enum class LoadState { kNormal = 0, kWarm = 1, kHot = 2 };

const char* load_state_name(LoadState s);

/// EWMA weight of the newest outstanding-count sample.
inline constexpr double kHotSpotAlpha = 0.2;
/// Fractional band below each threshold that must be crossed to de-escalate.
inline constexpr double kHotSpotHysteresis = 0.1;

struct HotSpotConfig {
  double warm_threshold = 10.0;  ///< EWMA outstanding at which WARM begins
  double hot_threshold = 18.0;   ///< EWMA outstanding at which HOT begins
};

class HotSpotDetector {
 public:
  explicit HotSpotDetector(HotSpotConfig config);

  /// Feeds one sample of the instantaneous outstanding count.
  /// Returns the (possibly updated) state.
  LoadState observe(double outstanding);

  LoadState state() const { return state_; }
  double ewma() const { return ewma_; }
  uint64_t transitions() const { return transitions_; }

 private:
  void move_to(LoadState next);

  HotSpotConfig config_;
  LoadState state_ = LoadState::kNormal;
  double ewma_ = 0.0;
  bool primed_ = false;
  uint64_t transitions_ = 0;
};

}  // namespace sbroker::core
