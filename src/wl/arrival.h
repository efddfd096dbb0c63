// Open-loop arrival schedules.
//
// Every load number measured before this layer came from closed-loop clients:
// each connection issues its next request the moment the previous one
// completes, so a stalled server stops receiving load exactly when it is
// slowest — coordinated omission, which systematically under-reports tail
// latency. An `ArrivalSchedule` decouples offered load from completions: it
// is a deterministic (per-seed) stream of *intended* send times that the
// real-socket loadgen (`bench/daemon_loadgen arrivals=`) and perfbench's open
// loop consume. Correct accounting then
// measures each request's latency from its intended send time, and records
// requests that could not be sent on schedule as queued-behind instead of
// silently eliding them.
//
// Three shapes, all generated by Lewis–Shedler thinning against the peak
// rate so a schedule is a pure function of (config, seed):
//   * poisson  — stationary Poisson arrivals at `rate`.
//   * bursty   — on/off modulated: within each `period`, arrivals flow only
//                during the first `duty` fraction, at rate/duty, so the mean
//                offered rate is still `rate` (the flash-crowd shape).
//   * diurnal  — sinusoidal ramp between `floor_frac`·peak and peak over
//                `period`, mean `rate` (the day/night shape, compressed).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/rng.h"

namespace sbroker::wl {

enum class ArrivalKind {
  kPoisson,
  kBursty,
  kDiurnal,
};

struct ArrivalConfig {
  ArrivalKind kind = ArrivalKind::kPoisson;
  double rate = 100.0;      ///< mean offered rate, requests/second
  double period = 1.0;      ///< bursty/diurnal cycle length, seconds
  double duty = 0.3;        ///< bursty: fraction of each period that is "on"
  double floor_frac = 0.2;  ///< diurnal: trough rate as a fraction of peak
};

/// Deterministic stream of intended arrival times (seconds from schedule
/// start, strictly non-decreasing). Independent schedules with seeds derived
/// via util::derive_seed(run_seed, i) superpose to the same aggregate shape —
/// the loadgen splits one offered rate across its client threads this way.
class ArrivalSchedule {
 public:
  ArrivalSchedule(ArrivalConfig config, uint64_t seed);

  /// Offset of the next arrival (seconds from schedule start).
  double next();

  /// Instantaneous offered rate at offset `t` (requests/second).
  double rate_at(double t) const;

  /// Peak of rate_at over a cycle (the thinning envelope).
  double peak_rate() const { return peak_rate_; }

  const ArrivalConfig& config() const { return config_; }

  static std::optional<ArrivalKind> parse_kind(std::string_view name);
  static const char* kind_name(ArrivalKind kind);

 private:
  ArrivalConfig config_;
  double peak_rate_;
  double t_ = 0.0;
  util::Rng rng_;
};

}  // namespace sbroker::wl
