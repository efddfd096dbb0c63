#include "core/overload.h"

#include <algorithm>
#include <cstdlib>

namespace sbroker::core {

const char* overload_policy_name(OverloadPolicy policy) {
  switch (policy) {
    case OverloadPolicy::kStatic:
      return "static";
    case OverloadPolicy::kAimd:
      return "aimd";
  }
  std::abort();  // exhaustive switch above (-Wswitch keeps it that way)
}

std::optional<OverloadConfig> parse_overload_spec(std::string_view spec,
                                                  OverloadConfig base) {
  if (spec == "static" || spec == "static+lifo") {
    base.policy = OverloadPolicy::kStatic;
  } else if (spec == "aimd" || spec == "aimd+lifo" || spec == "lifo") {
    base.policy = OverloadPolicy::kAimd;
  } else {
    return std::nullopt;
  }
  base.lifo = spec == "aimd+lifo" || spec == "static+lifo" || spec == "lifo";
  return base;
}

OverloadController::OverloadController(QosRules rules,
                                       const OverloadConfig& config)
    : config_(config),
      rules_(rules),
      threshold_(rules.threshold),
      ceiling_(std::max(kCeilingFactor * rules.threshold, kFloor)) {}

void OverloadController::observe(const OverloadSignal& signal) {
  double target = kBudgetFraction * signal.budget;
  // No evidence (too few fresh samples) or no yardstick (deadline-free
  // traffic): the interval carries no signal.
  if (signal.samples < kMinSamples || target <= 0.0) return;

  ++stats_.evals;
  bool breached = signal.p95 > target;
  adjust(breached);

  if (breached) {
    ++breach_streak_;
    clear_streak_ = 0;
  } else {
    ++clear_streak_;
    breach_streak_ = 0;
  }
  if (!overloaded_ && breach_streak_ >= kEnterBreaches) {
    overloaded_ = true;
    ++stats_.enters;
  } else if (overloaded_ && clear_streak_ >= kExitClears) {
    overloaded_ = false;
    ++stats_.exits;
  }
}

void OverloadController::adjust(bool breached) {
  // The paper's fixed rule: the static threshold never moves (the mode
  // tracking above still runs when lifo is requested).
  if (config_.policy == OverloadPolicy::kStatic) return;
  if (breached) {
    // Pinned at the floor = no movement: don't count phantom decreases.
    if (threshold_ > kFloor) {
      threshold_ = std::max(kFloor, threshold_ * kDecrease);
      ++stats_.decreases;
    }
  } else if (threshold_ < ceiling_) {
    threshold_ = std::min(ceiling_, threshold_ + kIncrease);
    ++stats_.increases;
  }
}

}  // namespace sbroker::core
