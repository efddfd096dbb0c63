#include "core/centralized.h"

#include <cstdlib>

namespace sbroker::core {

CentralizedController::CentralizedController(QosRules rules,
                                             double report_staleness_limit)
    : overload_(rules), staleness_limit_(report_staleness_limit) {}

void CentralizedController::register_profile(std::string url, ResourceProfile profile) {
  profiles_[std::move(url)] = std::move(profile);
}

void CentralizedController::on_load_report(const std::string& service,
                                           double outstanding, double now) {
  LoadEntry& entry = loads_[service];
  entry.outstanding = outstanding;
  entry.reported_at = now;
  ++reports_;
}

CentralizedController::Verdict CentralizedController::admit(const std::string& url,
                                                            QosLevel level, double now) {
  auto profile_it = profiles_.find(url);
  if (profile_it == profiles_.end()) {
    ++rejects_;
    return Verdict::kRejectUnknownUrl;
  }
  for (const std::string& service : profile_it->second.services) {
    auto load_it = loads_.find(service);
    if (load_it == loads_.end() || load_it->second.reported_at < 0) {
      // Never heard from this broker. Fail closed only when staleness
      // checking is enabled; otherwise assume idle (cold start).
      if (staleness_limit_ > 0) {
        ++rejects_;
        return Verdict::kRejectStale;
      }
      continue;
    }
    const LoadEntry& entry = load_it->second;
    if (staleness_limit_ > 0 && now - entry.reported_at > staleness_limit_) {
      ++rejects_;
      return Verdict::kRejectStale;
    }
    if (!overload_.admit(level, entry.outstanding)) {
      ++rejects_;
      return Verdict::kRejectOverload;
    }
  }
  ++admits_;
  return Verdict::kAdmit;
}

const char* verdict_name(CentralizedController::Verdict v) {
  using Verdict = CentralizedController::Verdict;
  switch (v) {
    case Verdict::kAdmit:
      return "admit";
    case Verdict::kRejectOverload:
      return "reject-overload";
    case Verdict::kRejectUnknownUrl:
      return "reject-unknown-url";
    case Verdict::kRejectStale:
      return "reject-stale";
  }
  std::abort();  // exhaustive switch above (-Wswitch keeps it that way)
}

}  // namespace sbroker::core
