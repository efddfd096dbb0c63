// QoS-aware request scheduler.
//
// "Service brokers receive, sort and rewrite these messages according to
// their QoS levels" (Section III): when the backend is busy, pending
// requests wait here and are released highest-class-first, FIFO within a
// class — a higher-priority arrival overtakes queued lower-priority work,
// which is exactly the reshuffling that prevents priority inversion.
//
// Under declared overload the OverloadController can flip the *within-class*
// discipline to LIFO (set_lifo): the newest entry of the selected class pops
// first, because it is the one that can still meet its deadline, while the
// oldest entries age out through the owner's deadline-expiry shed path
// ("Combined LIFO-Priority Scheme", PAPERS.md). Class priority ordering is
// never affected — LIFO applies strictly within one class's queue.
#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <optional>

#include "core/qos.h"

namespace sbroker::core {

template <typename T>
class QosScheduler {
 public:
  /// Enqueues `item` at `level`.
  void push(QosLevel level, T item) {
    queues_[-level].push_back(std::move(item));
    ++size_;
  }

  /// Removes and returns the highest-priority item (FIFO within class, or
  /// newest-first while the LIFO discipline is on).
  std::optional<T> pop() {
    if (size_ == 0) return std::nullopt;
    auto it = queues_.begin();
    while (it != queues_.end() && it->second.empty()) it = queues_.erase(it);
    if (it == queues_.end()) return std::nullopt;
    auto& q = it->second;
    T item = lifo_ ? std::move(q.back()) : std::move(q.front());
    if (lifo_) {
      q.pop_back();
    } else {
      q.pop_front();
    }
    if (q.empty()) queues_.erase(it);
    --size_;
    return item;
  }

  /// Flips the within-class pop order; queued items keep their positions, so
  /// flipping back mid-stream resumes FIFO over the surviving entries.
  void set_lifo(bool lifo) { lifo_ = lifo; }

  bool empty() const { return size_ == 0; }

 private:
  // Key is -level so begin() is the highest class.
  std::map<int, std::deque<T>> queues_;
  size_t size_ = 0;
  bool lifo_ = false;
};

}  // namespace sbroker::core
