// QoS-aware message rewriting — fidelity variation.
//
// "Service brokers receive, sort and rewrite these messages according to
// their QoS levels" (Section III), and the experiments "demonstrate notable
// scalability improvement through fidelity variations" (Section I). Instead
// of the binary forward/drop decision, a rewrite rule can *degrade* a query
// so it still gets a (cheaper, lower-fidelity) answer: under WARM load the
// result-set LIMIT of low classes is capped; under HOT load every class
// below the protected top class is capped harder.
//
// Rules apply to payloads that parse as the SQL subset; anything else passes
// through unchanged. The rewritten query keeps the original semantics except
// for the LIMIT clamp, so callers always receive a prefix of the full
// result — the classic content-adaptation notion of fidelity.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/hotspot.h"
#include "core/qos.h"

namespace sbroker::core {

/// Classes <= this are degraded under WARM load.
inline constexpr QosLevel kWarmDegradeBelow = 2;
/// LIMIT cap applied under WARM.
inline constexpr uint64_t kWarmLimit = 50;
/// LIMIT cap applied under HOT, to every class below the top one.
inline constexpr uint64_t kHotLimit = 10;

struct RewriteConfig {
  bool enabled = false;
};

struct RewriteOutcome {
  std::string payload;   ///< possibly rewritten query text
  bool degraded = false; ///< true when a cap was applied
};

class QueryRewriter {
 public:
  QueryRewriter(RewriteConfig config, QosRules rules);

  /// Applies the fidelity rules for a request of class `level` given the
  /// backend's load state. Non-SQL payloads and disabled rewriters return
  /// the input unchanged.
  RewriteOutcome apply(const std::string& payload, QosLevel level,
                       LoadState load) const;

  const RewriteConfig& config() const { return config_; }
  uint64_t rewrites() const { return rewrites_; }

 private:
  RewriteConfig config_;
  QosRules rules_;
  mutable uint64_t rewrites_ = 0;
};

}  // namespace sbroker::core
