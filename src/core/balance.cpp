#include "core/balance.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace sbroker::core {
namespace {

// A replica with no latency sample yet scores as if it were this fast, so
// cold replicas are explored before loaded ones and the outstanding factor
// still spreads concurrent picks across several cold replicas.
constexpr double kColdLatency = 1e-6;

// Glide rate toward a *faster* sample. Slower samples are adopted outright
// (the peak-decaying part), so one slow burst is visible immediately while
// recovery needs a couple of confirming fast samples.
constexpr double kDownGain = 0.5;

}  // namespace

const char* balance_policy_name(BalancePolicy p) {
  switch (p) {
    case BalancePolicy::kRandom:
      return "random";
    case BalancePolicy::kRoundRobin:
      return "round-robin";
    case BalancePolicy::kLeastOutstanding:
      return "least-outstanding";
    case BalancePolicy::kWeighted:
      return "weighted";
    case BalancePolicy::kEwma:
      return "ewma";
    case BalancePolicy::kP2c:
      return "p2c";
  }
  return "?";
}

std::optional<BalancePolicy> parse_balance_policy(std::string_view name) {
  if (name == "random") return BalancePolicy::kRandom;
  if (name == "round-robin" || name == "rr") return BalancePolicy::kRoundRobin;
  if (name == "least-outstanding" || name == "least")
    return BalancePolicy::kLeastOutstanding;
  if (name == "weighted") return BalancePolicy::kWeighted;
  if (name == "ewma") return BalancePolicy::kEwma;
  if (name == "p2c") return BalancePolicy::kP2c;
  return std::nullopt;
}

LoadBalancer::LoadBalancer(BalancePolicy policy, util::Rng rng,
                           HealthConfig health)
    : policy_(policy), rng_(rng), health_config_(health) {}

size_t LoadBalancer::add_backend(double weight) {
  outstanding_.push_back(0);
  weights_.push_back(std::max(weight, 0.01));
  picks_.push_back(0);
  health_.push_back(Health{});
  ewma_.push_back(Ewma{});
  return outstanding_.size() - 1;
}

bool LoadBalancer::eligible(size_t i, int pass,
                            std::optional<size_t> avoid) const {
  if (pass >= 2) return true;
  if (health_[i].ejected) return false;
  return pass >= 1 || !avoid || *avoid != i;
}

size_t LoadBalancer::count_eligible(int pass,
                                    std::optional<size_t> avoid) const {
  size_t n = 0;
  for (size_t i = 0; i < outstanding_.size(); ++i) {
    if (eligible(i, pass, avoid)) ++n;
  }
  return n;
}

size_t LoadBalancer::nth_eligible(size_t rank, int pass,
                                  std::optional<size_t> avoid) const {
  for (size_t i = 0; i < outstanding_.size(); ++i) {
    if (!eligible(i, pass, avoid)) continue;
    if (rank == 0) return i;
    --rank;
  }
  assert(false && "rank out of range");
  return 0;
}

double LoadBalancer::ewma_seconds(size_t backend, double now) const {
  const Ewma& e = ewma_.at(backend);
  if (e.value <= 0.0) return 0.0;
  double dt = now - e.stamp;
  if (dt <= 0.0) return e.value;
  return e.value * std::exp(-dt / kDefaultEwmaTau);
}

double LoadBalancer::ewma_score(size_t i, double now) const {
  double latency = std::max(ewma_seconds(i, now), kColdLatency);
  return latency * static_cast<double>(outstanding_[i] + 1);
}

size_t LoadBalancer::pick_eligible(size_t count, int pass,
                                   std::optional<size_t> avoid, double now) {
  assert(count > 0);
  switch (policy_) {
    case BalancePolicy::kRandom:
      return nth_eligible(
          static_cast<size_t>(
              rng_.uniform_int(0, static_cast<int64_t>(count) - 1)),
          pass, avoid);
    case BalancePolicy::kRoundRobin: {
      // Scan forward from the cursor so the rotation is preserved across the
      // holes left by ejected replicas.
      for (size_t step = 0; step < outstanding_.size(); ++step) {
        size_t index = (rr_next_ + step) % outstanding_.size();
        if (eligible(index, pass, avoid)) {
          rr_next_ = (index + 1) % outstanding_.size();
          return index;
        }
      }
      assert(false && "eligible set vanished");
      return 0;
    }
    case BalancePolicy::kLeastOutstanding: {
      size_t chosen = outstanding_.size();
      for (size_t i = 0; i < outstanding_.size(); ++i) {
        if (!eligible(i, pass, avoid)) continue;
        if (chosen == outstanding_.size() ||
            outstanding_[i] < outstanding_[chosen]) {
          chosen = i;
        }
      }
      return chosen;
    }
    case BalancePolicy::kWeighted: {
      size_t chosen = outstanding_.size();
      double best = 0.0;
      for (size_t i = 0; i < outstanding_.size(); ++i) {
        if (!eligible(i, pass, avoid)) continue;
        double load = static_cast<double>(outstanding_[i]) / weights_[i];
        if (chosen == outstanding_.size() || load < best) {
          best = load;
          chosen = i;
        }
      }
      return chosen;
    }
    case BalancePolicy::kEwma: {
      size_t chosen = outstanding_.size();
      double best = 0.0;
      for (size_t i = 0; i < outstanding_.size(); ++i) {
        if (!eligible(i, pass, avoid)) continue;
        double score = ewma_score(i, now);
        if (chosen == outstanding_.size() || score < best ||
            (score == best && outstanding_[i] < outstanding_[chosen])) {
          best = score;
          chosen = i;
        }
      }
      return chosen;
    }
    case BalancePolicy::kP2c: {
      if (count == 1) return nth_eligible(0, pass, avoid);
      // Two distinct uniform ranks; one scan resolves both to indices.
      size_t ra = static_cast<size_t>(
          rng_.uniform_int(0, static_cast<int64_t>(count) - 1));
      size_t rb = static_cast<size_t>(
          rng_.uniform_int(0, static_cast<int64_t>(count) - 2));
      if (rb >= ra) ++rb;
      size_t a = nth_eligible(ra, pass, avoid);
      size_t b = nth_eligible(rb, pass, avoid);
      double sa = ewma_score(a, now);
      double sb = ewma_score(b, now);
      if (sa < sb) return a;
      if (sb < sa) return b;
      return outstanding_[a] <= outstanding_[b] ? a : b;
    }
  }
  assert(false && "unknown policy");
  return 0;
}

std::optional<size_t> LoadBalancer::pick(double now, std::optional<size_t> avoid,
                                         bool* probe) {
  if (probe) *probe = false;
  if (outstanding_.empty()) return std::nullopt;

  // A replica whose ejection window elapsed gets exactly one half-open probe
  // request before anything else; its outcome (via report) decides recovery.
  // Retries never double as probes — `avoid` is the replica that just failed.
  for (size_t i = 0; i < health_.size(); ++i) {
    Health& h = health_[i];
    if (h.ejected && !h.probing && now >= h.eject_until &&
        (!avoid || *avoid != i)) {
      h.probing = true;
      ++probes_issued_;
      ++outstanding_[i];
      ++picks_[i];
      if (probe) *probe = true;
      return i;
    }
  }

  // Relax `avoid`, then health: with everything ejected the broker still
  // forwards somewhere rather than failing outright.
  int pass = 0;
  size_t count = count_eligible(0, avoid);
  if (count == 0) {
    pass = 1;
    count = count_eligible(1, avoid);
  }
  if (count == 0) {
    pass = 2;
    count = outstanding_.size();
  }

  size_t chosen = pick_eligible(count, pass, avoid, now);
  ++outstanding_[chosen];
  ++picks_[chosen];
  return chosen;
}

void LoadBalancer::complete(size_t backend) {
  assert(backend < outstanding_.size() && outstanding_[backend] > 0);
  --outstanding_[backend];
}

ReplicaEvent LoadBalancer::report(size_t backend, bool ok, double now,
                                  double latency) {
  if (ok && latency >= 0.0) {
    // Peak-decaying update: a slower sample is adopted outright, a faster
    // one is approached at kDownGain per sample from the aged estimate.
    Ewma& e = ewma_.at(backend);
    double aged = ewma_seconds(backend, now);
    e.value = latency >= aged ? latency : aged + (latency - aged) * kDownGain;
    e.stamp = now;
  }
  if (health_config_.eject_after <= 0) return ReplicaEvent::kNone;
  Health& h = health_.at(backend);
  if (ok) {
    h.consecutive_failures = 0;
    if (h.ejected) {
      h.ejected = false;
      h.probing = false;
      h.eject_until = 0.0;
      return ReplicaEvent::kRecovered;
    }
    return ReplicaEvent::kNone;
  }
  ++h.consecutive_failures;
  if (h.probing) {
    // Failed half-open probe: a fresh ejection window starts.
    h.probing = false;
    h.eject_until = now + health_config_.eject_duration;
    return ReplicaEvent::kEjected;
  }
  if (!h.ejected && h.consecutive_failures >= health_config_.eject_after) {
    h.ejected = true;
    h.eject_until = now + health_config_.eject_duration;
    return ReplicaEvent::kEjected;
  }
  return ReplicaEvent::kNone;
}

size_t LoadBalancer::ejected_count() const {
  size_t n = 0;
  for (const Health& h : health_) n += h.ejected ? 1 : 0;
  return n;
}

}  // namespace sbroker::core
