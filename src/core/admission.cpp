#include "core/admission.h"

#include <cstdlib>

namespace sbroker::core {

const char* admission_decision_name(AdmissionDecision d) {
  switch (d) {
    case AdmissionDecision::kForward:
      return "forward";
    case AdmissionDecision::kDropOverLimit:
      return "drop-over-limit";
  }
  std::abort();  // exhaustive switch above (-Wswitch keeps it that way)
}

AdmissionController::AdmissionController(QosRules rules,
                                         const OverloadConfig& overload)
    : rules_(rules),
      overload_(make_overload_controller(overload, rules)) {}

AdmissionDecision AdmissionController::decide(QosLevel level, double outstanding) {
  level = rules_.clamp_level(level);
  if (!overload_->admit(level, outstanding)) {
    ++dropped_over_limit_;
    return AdmissionDecision::kDropOverLimit;
  }
  ++forwarded_;
  return AdmissionDecision::kForward;
}

}  // namespace sbroker::core
