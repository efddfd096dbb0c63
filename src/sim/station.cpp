#include "sim/station.h"

#include <cassert>
#include <utility>

namespace sbroker::sim {

BoundedStation::BoundedStation(Simulation& sim, size_t capacity, size_t queue_limit)
    : sim_(sim), capacity_(capacity), queue_limit_(queue_limit) {
  assert(capacity > 0);
}

bool BoundedStation::submit(Duration service_time, Completion on_complete) {
  Pending job{service_time, std::move(on_complete)};
  if (busy_ < capacity_) {
    start(std::move(job));
    return true;
  }
  if (queue_.size() >= queue_limit_) {
    ++rejections_;
    return false;
  }
  queue_.push_back(std::move(job));
  return true;
}

void BoundedStation::start(Pending job) {
  ++busy_;
  Completion on_complete = std::move(job.on_complete);
  sim_.after(job.service_time, [this, cb = std::move(on_complete)]() mutable {
    finish();
    if (cb) cb();
  });
}

void BoundedStation::finish() {
  assert(busy_ > 0);
  --busy_;
  ++completions_;
  if (!queue_.empty() && busy_ < capacity_) {
    Pending next = std::move(queue_.front());
    queue_.pop_front();
    start(std::move(next));
  }
}

}  // namespace sbroker::sim
