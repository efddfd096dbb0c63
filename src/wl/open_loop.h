// Open-loop client population with coordinated-omission-correct accounting.
//
// Consumes an ArrivalSchedule: requests are *due* at scheduled times
// regardless of how the system under test is doing. A bounded sender pool
// (`max_outstanding`) models the real constraint that a connection can carry
// only so many concurrent requests — when every sender is busy, an arrival
// queues behind instead of being dropped or (the closed-loop sin) never
// generated at all. Latency is measured from the request's *scheduled* time,
// so queue-behind waits land in the tail where they belong; the uncorrected
// from-actual-send view is kept alongside to show the omission gap.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "obs/histogram.h"
#include "sim/simulation.h"
#include "wl/arrival.h"

namespace sbroker::wl {

struct OpenLoopConfig {
  ArrivalConfig arrivals;
  uint64_t seed = 1;
  double duration = 10.0;      ///< schedule horizon (virtual seconds)
  size_t max_outstanding = 0;  ///< concurrent sends; 0 = unbounded
  int qos_level = 1;
};

class OpenLoopClients {
 public:
  /// `issue(qos_level, done)` performs one request and calls `done` exactly
  /// once when the response (any fidelity) arrives.
  using IssueFn = std::function<void(int qos_level, std::function<void()> done)>;

  OpenLoopClients(sim::Simulation& sim, OpenLoopConfig config, IssueFn issue);

  void start();

  /// Arrivals the schedule produced inside the window. Every one of them is
  /// eventually sent (sent() == scheduled() once the sim drains) — open-loop
  /// load is never silently elided.
  uint64_t scheduled() const { return scheduled_; }
  uint64_t sent() const { return sent_; }
  uint64_t completed() const { return completed_; }
  /// Arrivals that found every sender busy and had to wait for a slot.
  uint64_t queued_behind() const { return queued_behind_; }
  /// Worst send lag: actual send time minus scheduled time.
  double max_lag() const { return max_lag_; }

  /// Latency measured from the scheduled time (omission-corrected).
  const obs::LatencyHistogram& response_times() const { return response_times_; }
  /// Latency measured from the actual send (the biased, closed-loop-style
  /// view) — kept so the omission gap is observable in one run.
  const obs::LatencyHistogram& service_times() const { return service_times_; }

 private:
  void schedule_next_arrival();
  void on_arrival(double scheduled_at);
  void send(double scheduled_at);

  sim::Simulation& sim_;
  OpenLoopConfig config_;
  IssueFn issue_;
  ArrivalSchedule schedule_;
  double start_time_ = 0.0;
  size_t outstanding_ = 0;
  std::deque<double> backlog_;  ///< scheduled times waiting for a sender
  uint64_t scheduled_ = 0;
  uint64_t sent_ = 0;
  uint64_t completed_ = 0;
  uint64_t queued_behind_ = 0;
  double max_lag_ = 0.0;
  obs::LatencyHistogram response_times_;
  obs::LatencyHistogram service_times_;
};

}  // namespace sbroker::wl
