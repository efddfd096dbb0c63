// Overload control: the single home of the admission threshold.
//
// The paper fixes the outstanding-request threshold at 20 per broker and
// forwards class `level` while `outstanding < threshold*level/levels`. One
// OverloadController applies that comparison for every admission call site
// (the broker's submit path, its background gate, the CentralizedController)
// against a single, live effective threshold — and makes the threshold a
// policy:
//
//   kStatic — the paper's rule verbatim: the effective threshold never
//     moves. Zero feedback, zero overhead.
//
//   kAimd — "Design of QoS-aware Provisioning Systems" (PAPERS.md):
//     replace the hand-tuned constant with a measurement-driven feedback
//     loop. Each evaluation interval the owner feeds the controller the
//     p95 of the latencies it observed (queue wait / total, from
//     obs::BrokerObserver) plus the deadline budget those requests carry.
//     While p95 stays under kBudgetFraction * budget the threshold grows
//     additively (+kIncrease); a breached interval cuts it multiplicatively
//     (*kDecrease) — TCP's AIMD law, applied to admission. The threshold
//     therefore converges to the largest backlog the backend can drain
//     inside the latency target, between kFloor and kCeilingFactor times the
//     configured threshold.
//
// Independently of the threshold policy, the controller tracks an
// *overload mode* with enter/exit hysteresis (kEnterBreaches consecutive
// breached intervals to enter, kExitClears clear ones to leave, so a single
// noisy interval cannot flap the mode). When `lifo` is set, owners flip
// their wait queues from FIFO to LIFO while the mode is on — the "Combined
// LIFO-Priority Scheme" (PAPERS.md): under overload the newest request is
// the one that can still meet its deadline, so serve it first and let the
// oldest age out through the existing exactly-once deadline-expiry path
// instead of everyone timing out in arrival order.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "core/qos.h"

namespace sbroker::core {

enum class OverloadPolicy {
  kStatic,  ///< fixed threshold (the paper's rule)
  kAimd,    ///< additive-increase/multiplicative-decrease feedback
};

const char* overload_policy_name(OverloadPolicy policy);

/// Latency target as a fraction of the deadline budget in force.
inline constexpr double kBudgetFraction = 0.5;
/// AIMD law: threshold += kIncrease per clear interval, threshold *=
/// kDecrease per breached one.
inline constexpr double kIncrease = 1.0;
inline constexpr double kDecrease = 0.7;
/// The AIMD walk stays within [kFloor, kCeilingFactor * QosRules::threshold]:
/// feedback may find the backend holds more backlog than the tuned constant.
inline constexpr double kFloor = 1.0;
inline constexpr double kCeilingFactor = 4.0;
/// Intervals with fewer fresh samples than this carry no signal: they leave
/// the threshold, the mode and both hysteresis streaks untouched.
inline constexpr uint64_t kMinSamples = 8;
/// Consecutive breached intervals to enter overload mode, clear ones to
/// leave it.
inline constexpr int kEnterBreaches = 2;
inline constexpr int kExitClears = 4;

struct OverloadConfig {
  OverloadPolicy policy = OverloadPolicy::kStatic;
  /// Flip wait queues FIFO->LIFO while overload mode is on.
  bool lifo = false;
  /// Seconds between feedback evaluations on the owner's tick path.
  double eval_interval = 0.05;
};

/// One feedback interval's measurement, produced by the owner from its
/// observer histograms (delta since the previous evaluation).
struct OverloadSignal {
  double p95 = 0.0;       ///< observed wait/total p95 over the interval, s
  uint64_t samples = 0;   ///< fresh observations behind that quantile
  double budget = 0.0;    ///< deadline budget in force, seconds (0 = none)
};

/// Feedback-loop counters, merged across shards like every other stat.
struct OverloadStats {
  uint64_t evals = 0;      ///< intervals that carried enough samples to act
  uint64_t increases = 0;  ///< additive threshold raises
  uint64_t decreases = 0;  ///< multiplicative threshold cuts
  uint64_t enters = 0;     ///< overload-mode entries
  uint64_t exits = 0;      ///< overload-mode exits

  void merge(const OverloadStats& other) {
    evals += other.evals;
    increases += other.increases;
    decreases += other.decreases;
    enters += other.enters;
    exits += other.exits;
  }
};

class OverloadController {
 public:
  explicit OverloadController(QosRules rules, const OverloadConfig& config = {});

  /// The paper's binary forward-or-drop rule, against the *live* effective
  /// threshold. The only place this comparison exists.
  bool admit(QosLevel level, double outstanding) const {
    return outstanding < bound(level);
  }

  /// Admission bound for `level`: the per-level fraction level/num_levels of
  /// the effective threshold.
  double bound(QosLevel level) const {
    level = rules_.clamp_level(level);
    return threshold_ * static_cast<double>(level) /
           static_cast<double>(rules_.num_levels);
  }

  /// Feeds one interval's measurement: moves the threshold under kAimd and
  /// runs the hysteresis state machine. Intervals below kMinSamples, or with
  /// no deadline budget to derive a target from, are ignored entirely.
  void observe(const OverloadSignal& signal);

  double threshold() const { return threshold_; }
  bool overloaded() const { return overloaded_; }
  /// True when the owner's wait queues should run LIFO right now.
  bool lifo_active() const { return config_.lifo && overloaded_; }
  /// True when the owner should measure and call observe() periodically.
  /// Static without lifo never looks at the signal, so the owner can skip
  /// the histogram snapshots entirely.
  bool wants_feedback() const {
    return config_.policy != OverloadPolicy::kStatic || config_.lifo;
  }
  OverloadPolicy policy() const { return config_.policy; }
  const OverloadStats& stats() const { return stats_; }

 private:
  /// Moves threshold_ for one evaluated interval (kAimd only).
  void adjust(bool breached);

  OverloadConfig config_;
  QosRules rules_;
  double threshold_;
  double ceiling_;
  OverloadStats stats_;
  bool overloaded_ = false;
  int breach_streak_ = 0;
  int clear_streak_ = 0;
};

/// Parses a bench/CLI spec — "static", "aimd", "aimd+lifo", "static+lifo",
/// "lifo" (= aimd+lifo) — into policy + lifo flag on top of `base`; nullopt
/// on anything else.
std::optional<OverloadConfig> parse_overload_spec(std::string_view spec,
                                                  OverloadConfig base = {});

}  // namespace sbroker::core
