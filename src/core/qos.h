// QoS classes and the paper's threshold admission rule.
//
// Section V-B-1: "QoS level means that the request is forwarded to the
// backend servers if the number of the outstanding requests is [below a
// per-level fraction] of the threshold. ... The thresholds at each broker
// were set to be 20."
//
// We implement the per-level fraction as level/num_levels: with 3 levels and
// threshold 20, class 3 is admitted while outstanding < 20, class 2 while
// outstanding < 13.33, class 1 while outstanding < 6.67. Higher classes thus
// keep backend access longer as load grows, lower classes are shed first,
// and the ordering of drop ratios in the paper's Tables II-IV follows.
#pragma once

#include <algorithm>
#include <cassert>

namespace sbroker::core {

/// A QoS class. Classes are 1-based; higher value = higher priority.
using QosLevel = int;

struct QosRules {
  int num_levels = 3;
  /// Maximum outstanding (forwarded, uncompleted) requests per backend.
  /// The forward-or-drop comparison against it lives in
  /// core::OverloadController (overload.h), whose effective threshold may
  /// move away from this constant under feedback control.
  double threshold = 20.0;

  QosLevel clamp_level(QosLevel level) const {
    return std::clamp(level, 1, num_levels);
  }
};

}  // namespace sbroker::core
