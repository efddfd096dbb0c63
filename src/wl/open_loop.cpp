#include "wl/open_loop.h"

#include <algorithm>

namespace sbroker::wl {

OpenLoopClients::OpenLoopClients(sim::Simulation& sim, OpenLoopConfig config,
                                 IssueFn issue)
    : sim_(sim),
      config_(config),
      issue_(std::move(issue)),
      schedule_(config.arrivals, config.seed) {}

void OpenLoopClients::start() {
  start_time_ = sim_.now();
  schedule_next_arrival();
}

void OpenLoopClients::schedule_next_arrival() {
  double offset = schedule_.next();
  if (offset >= config_.duration) return;  // horizon reached; let work drain
  double at = start_time_ + offset;
  ++scheduled_;
  sim_.at(at, [this, at]() { on_arrival(at); });
}

void OpenLoopClients::on_arrival(double scheduled_at) {
  // Draw the next arrival first: the schedule never waits on the system.
  schedule_next_arrival();
  if (config_.max_outstanding > 0 && outstanding_ >= config_.max_outstanding) {
    ++queued_behind_;
    backlog_.push_back(scheduled_at);
    return;
  }
  send(scheduled_at);
}

void OpenLoopClients::send(double scheduled_at) {
  ++outstanding_;
  ++sent_;
  double sent_at = sim_.now();
  max_lag_ = std::max(max_lag_, sent_at - scheduled_at);
  issue_(config_.qos_level, [this, scheduled_at, sent_at]() {
    double now = sim_.now();
    response_times_.record_seconds(now - scheduled_at);  // from intended send time
    service_times_.record_seconds(now - sent_at);        // the biased view, for contrast
    ++completed_;
    --outstanding_;
    if (!backlog_.empty()) {
      double waiting = backlog_.front();
      backlog_.pop_front();
      send(waiting);
    }
  });
}

}  // namespace sbroker::wl
