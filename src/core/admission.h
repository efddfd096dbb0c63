// Admission control: the broker-side overload gate.
//
// Applies the paper's threshold rule, delegated to the pluggable
// OverloadController (overload.h), which owns the live effective threshold:
// a request is forwarded only while the broker's outstanding count is below
// its class's share of that threshold.
#pragma once

#include <memory>

#include "core/overload.h"
#include "core/qos.h"

namespace sbroker::core {

enum class AdmissionDecision {
  kForward,          ///< send to the backend
  kDropOverLimit,    ///< outstanding count exceeded the class bound
};

const char* admission_decision_name(AdmissionDecision d);

class AdmissionController {
 public:
  /// `overload` selects the threshold policy; the default (static, no
  /// feedback) reproduces the paper's fixed rule exactly.
  explicit AdmissionController(QosRules rules, const OverloadConfig& overload = {});

  /// Decides for one request of class `level`, given the broker's current
  /// outstanding count.
  AdmissionDecision decide(QosLevel level, double outstanding);

  const QosRules& rules() const { return rules_; }

  /// The threshold policy behind decide(); owners feed it measurements
  /// (OverloadController::observe) and read its live effective threshold.
  OverloadController& overload() { return *overload_; }
  const OverloadController& overload() const { return *overload_; }

  uint64_t forwarded() const { return forwarded_; }
  uint64_t dropped_over_limit() const { return dropped_over_limit_; }

 private:
  QosRules rules_;
  std::unique_ptr<OverloadController> overload_;
  uint64_t forwarded_ = 0;
  uint64_t dropped_over_limit_ = 0;
};

}  // namespace sbroker::core
