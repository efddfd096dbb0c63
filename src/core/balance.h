// Backend load balancing.
//
// "In the API-based architecture, since no state information is shared in
// individual accesses, it can only work in a speculative manner. The service
// brokers can track the traffic and monitor their workload and accurately
// distribute the workload among the backend servers" (Section III).
//
// kRandom and kRoundRobin are the speculative (stateless) policies the API
// model is limited to; kLeastOutstanding uses the broker's accurate
// per-backend in-flight counts; kWeighted additionally divides by a backend
// capacity weight so heterogeneous replicas are loaded proportionally.
// kEwma keeps a peak-decaying EWMA of each replica's observed response time
// (fed by the broker's completion outcomes via report()) and picks the
// replica minimising ewma * (outstanding + 1); kP2c samples two distinct
// replicas uniformly and keeps the one with the lower EWMA score — the
// power-of-two-choices construction that gets most of the latency awareness
// at O(1) comparison cost and without herding onto one briefly-idle replica.
//
// On top of the placement policy sits per-replica health: a backend that
// fails `HealthConfig::eject_after` exchanges in a row is ejected from the
// candidate set for `eject_duration` seconds, then offered exactly one
// half-open probe request; a successful probe recovers it, a failed one
// re-ejects it. Health is fed by the broker's completion outcomes via
// report(). Disabled by default (eject_after = 0). Probe and `avoid`
// semantics sit in front of the policy, so they behave identically under
// every policy.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace sbroker::core {

enum class BalancePolicy {
  kRandom,
  kRoundRobin,
  kLeastOutstanding,
  kWeighted,
  kEwma,  ///< min over replicas of peak-EWMA latency x (outstanding + 1)
  kP2c,   ///< power-of-two-choices over the same EWMA score
};

const char* balance_policy_name(BalancePolicy p);

/// Parses a policy name as it appears in configs / bench sweeps. Accepts the
/// canonical names from balance_policy_name() plus the short aliases "rr"
/// (round-robin) and "least" (least-outstanding). nullopt on unknown names.
std::optional<BalancePolicy> parse_balance_policy(std::string_view name);

/// Replica-health policy knobs. eject_after = 0 disables health tracking.
/// Set them for a pool where one replica can die while the others serve:
/// the shipped programs run replicas that stay up, so none sets them.
struct HealthConfig {
  int eject_after = 0;          ///< consecutive failures that eject a replica
  double eject_duration = 1.0;  ///< seconds ejected before a half-open probe
};

/// What a completion outcome did to the replica's health state.
enum class ReplicaEvent {
  kNone,
  kEjected,    ///< entered (or re-entered, after a failed probe) ejection
  kRecovered,  ///< a successful exchange ended the ejection
};

/// Decay time constant (seconds) of the per-replica latency EWMA. Estimates
/// age toward zero with exp(-dt/tau), so a replica that was slow and then
/// stopped receiving traffic is retried after a few tau rather than being
/// starved forever on a stale estimate.
inline constexpr double kDefaultEwmaTau = 0.5;

class LoadBalancer {
 public:
  explicit LoadBalancer(BalancePolicy policy, util::Rng rng = util::Rng(7),
                        HealthConfig health = {});

  /// Registers a backend with a relative capacity weight (>= minimum 0.01).
  /// Returns its index.
  size_t add_backend(double weight = 1.0);

  /// Picks a backend for the next request and charges it one in-flight
  /// request. nullopt when no backends are registered. Ejected replicas are
  /// skipped — unless one is due its half-open probe (then it is chosen, and
  /// `*probe` set), or every replica is ejected (then the broker still
  /// forwards somewhere rather than failing outright). `avoid` deprioritises
  /// a replica (the one a retry just failed on) without forbidding it when
  /// it is the only choice.
  std::optional<size_t> pick(double now = 0.0,
                             std::optional<size_t> avoid = std::nullopt,
                             bool* probe = nullptr);

  /// Marks a request complete on `backend` (in-flight accounting only; pair
  /// with report() for the health/latency outcome).
  void complete(size_t backend);

  /// Feeds one exchange outcome into `backend`'s health state. A successful
  /// exchange with `latency` >= 0 (seconds) also feeds the replica's
  /// peak-decaying response-time EWMA; pass latency < 0 when no meaningful
  /// round-trip time exists (e.g. a harvested stall).
  ReplicaEvent report(size_t backend, bool ok, double now,
                      double latency = -1.0);

  /// Un-marks a half-open probe whose carrier could not actually be sent
  /// (connection pool saturated), so a later pick can offer it again.
  void abandon_probe(size_t backend) { health_.at(backend).probing = false; }

  size_t outstanding(size_t backend) const { return outstanding_.at(backend); }
  size_t backend_count() const { return outstanding_.size(); }
  uint64_t picks(size_t backend) const { return picks_.at(backend); }
  BalancePolicy policy() const { return policy_; }
  bool ejected(size_t backend) const { return health_.at(backend).ejected; }
  size_t ejected_count() const;
  uint64_t probes() const { return probes_issued_; }
  /// The replica's response-time estimate, seconds, aged to `now` (estimates
  /// decay toward 0 with tau between observations). 0 = never sampled.
  double ewma_seconds(size_t backend, double now) const;
  /// The raw (un-aged) estimate as of its last observation — what the
  /// status/metrics snapshots export, since they carry no timeline.
  double last_ewma_seconds(size_t backend) const {
    return ewma_.at(backend).value;
  }

 private:
  struct Health {
    int consecutive_failures = 0;
    bool ejected = false;
    double eject_until = 0.0;
    bool probing = false;  ///< the single half-open probe is in flight
  };

  /// Peak-decaying response-time estimate: jumps to a slower sample
  /// immediately (tail sensitivity), glides down toward faster ones, and
  /// ages toward zero while unsampled so cold/recovered replicas get tried.
  struct Ewma {
    double value = 0.0;  ///< seconds; 0 = no sample yet
    double stamp = 0.0;  ///< time of the last observation
  };

  /// Eligibility passes for one pick: strict (healthy, not avoided), then
  /// relaxing avoid, then health, so a pick always lands somewhere.
  bool eligible(size_t i, int pass, std::optional<size_t> avoid) const;
  /// Eligible replicas under `pass`; pick() relaxes pass until nonzero.
  size_t count_eligible(int pass, std::optional<size_t> avoid) const;
  /// Index of the rank-th eligible replica (rank < count_eligible(pass)).
  size_t nth_eligible(size_t rank, int pass, std::optional<size_t> avoid) const;
  /// Applies the policy over the eligible set without materialising it.
  size_t pick_eligible(size_t count, int pass, std::optional<size_t> avoid,
                       double now);
  /// EWMA selection score: aged estimate x (outstanding + 1). Never-sampled
  /// replicas score near zero, so they are explored before loaded ones.
  double ewma_score(size_t i, double now) const;

  BalancePolicy policy_;
  util::Rng rng_;
  HealthConfig health_config_;
  std::vector<size_t> outstanding_;
  std::vector<double> weights_;
  std::vector<uint64_t> picks_;
  std::vector<Health> health_;
  std::vector<Ewma> ewma_;
  uint64_t probes_issued_ = 0;
  size_t rr_next_ = 0;
};

}  // namespace sbroker::core
