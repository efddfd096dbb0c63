// Centralized deployment model (paper Section IV, Figure 4).
//
// "The Web server manages all the load and QoS requirements. The load
// information from the service brokers are obtained through a listener
// thread and all the requested URLs' resource profiles are accessible to
// the Web server. For a particular incoming request, the Web server checks
// its resource requirements and current load status of the brokers before
// the request proceeds to the normal handling process."
//
// The controller holds per-URL resource profiles (which services a URL
// touches) and the latest load report per service. admit() rejects a request
// up front when any touched service is over the requester's QoS bound —
// "the request is aborted before any real processing starts".
//
// The paper's scalability concern — the listener "could be overwhelmed with
// update messages, which may erode away computing power from the Web server
// processes" — is modeled by counting reports and exposing the CPU seconds
// they cost; the ablation bench charges that against front-end capacity.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/overload.h"
#include "core/qos.h"

namespace sbroker::core {

struct ResourceProfile {
  /// Service names this URL's handler will call, in order.
  std::vector<std::string> services;
};

class CentralizedController {
 public:
  enum class Verdict {
    kAdmit,
    kRejectOverload,   ///< some touched service over the QoS bound
    kRejectUnknownUrl, ///< no resource profile registered
    kRejectStale,      ///< a touched service has no fresh load report
  };

  /// `rules`: the shared QoS thresholds, applied by the same static
  /// OverloadController rule the distributed brokers default to, so the
  /// ablation compares deployment models, not admission rules.
  /// `report_staleness_limit`: maximum age (seconds) of a load report before
  /// it is distrusted (<=0 disables the staleness check).
  explicit CentralizedController(QosRules rules,
                                 double report_staleness_limit = 0.0);

  void register_profile(std::string url, ResourceProfile profile);

  /// Listener-thread path: a broker reported `outstanding` for `service`.
  void on_load_report(const std::string& service, double outstanding, double now);

  /// Front-door admission for a request of class `level` targeting `url`.
  Verdict admit(const std::string& url, QosLevel level, double now);

  uint64_t reports_processed() const { return reports_; }
  uint64_t admits() const { return admits_; }
  uint64_t rejects() const { return rejects_; }

  /// CPU seconds the listener consumed, at `per_report_cost` seconds per
  /// update — the capacity erosion the distributed model avoids.
  double listener_cpu_seconds(double per_report_cost) const {
    return per_report_cost * static_cast<double>(reports_);
  }

 private:
  struct LoadEntry {
    double outstanding = 0.0;
    double reported_at = -1.0;
  };

  OverloadController overload_;
  double staleness_limit_;
  std::unordered_map<std::string, ResourceProfile> profiles_;
  std::unordered_map<std::string, LoadEntry> loads_;
  uint64_t reports_ = 0;
  uint64_t admits_ = 0;
  uint64_t rejects_ = 0;
};

const char* verdict_name(CentralizedController::Verdict v);

}  // namespace sbroker::core
