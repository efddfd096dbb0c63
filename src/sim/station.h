// Bounded service stations: the queueing building block for every server
// model in this repo.
//
// `BoundedStation` models a pool of `capacity` identical workers in front of
// a FIFO queue with an optional length limit — exactly the shape of an
// Apache-style process pool (`MaxClients` workers) or a database server's
// connection/thread cap.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>

#include "sim/simulation.h"
#include "util/stats.h"

namespace sbroker::sim {

/// A worker pool + FIFO queue. Jobs carry their own service time.
class BoundedStation {
 public:
  using Completion = std::function<void()>;

  /// `capacity` simultaneous jobs; queue holds up to `queue_limit` more.
  BoundedStation(Simulation& sim, size_t capacity,
                 size_t queue_limit = std::numeric_limits<size_t>::max());

  /// Submits a job. Returns false (and drops the job) when the queue is
  /// full; `on_complete` is then never invoked. Callers holding one-shot
  /// resources in the completion should check would_accept() first.
  bool submit(Duration service_time, Completion on_complete);

  /// True when a submit() right now would be admitted.
  bool would_accept() const { return busy_ < capacity_ || queue_.size() < queue_limit_; }

  size_t busy() const { return busy_; }
  size_t queued() const { return queue_.size(); }
  /// Jobs admitted but not yet completed (in service + queued).
  size_t outstanding() const { return busy_ + queue_.size(); }
  size_t capacity() const { return capacity_; }

  uint64_t completions() const { return completions_; }
  uint64_t rejections() const { return rejections_; }

  /// Time each completed job spent waiting in the queue (not in service).
  const util::Summary& queue_wait() const { return queue_wait_; }

 private:
  struct Pending {
    Duration service_time;
    Completion on_complete;
    Time enqueued_at;
  };

  void start(Pending job);
  void finish();

  Simulation& sim_;
  size_t capacity_;
  size_t queue_limit_;
  size_t busy_ = 0;
  std::deque<Pending> queue_;
  uint64_t completions_ = 0;
  uint64_t rejections_ = 0;
  util::Summary queue_wait_;
};

}  // namespace sbroker::sim
