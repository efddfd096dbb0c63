// Request-event flight recorder.
//
// A per-shard ring buffer of fixed-size trace events, written on the broker
// hot path for one array store plus a counter bump. It answers the question
// metrics cannot: *what happened to request N* — when it was admitted, which
// batch it joined, which replica carried it, how many times it retried, and
// how it terminated. The buffer holds the most recent `capacity` events;
// older ones are overwritten (flight-recorder semantics: on failure, dump
// the tail). Like the histograms, a recorder has a single writer (its shard)
// and is dumped from that same thread (Reactor::post for the admin plane).
//
// core::ServiceBroker::finish emits each request's one terminal event:
//
//   outcome                   kind       detail
//   cache hit (kSwr first     kCacheHit  0
//     if within grace)
//   negative hit              kCacheHit  2
//   no backend                kComplete  http::Fidelity::kError
//   admission drop            kDrop      1 (also when a stale copy answers)
//   pool-saturated shed       kDrop      2 (likewise)
//   deadline shed             kDeadline  attempts consumed (likewise)
//   completion                kComplete  kFull, kDegraded; kCached (waiter)
//   backend error             kComplete  http::Fidelity::kError
//
// A background fetch's terminal carries request_id 0 and sends no reply.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sbroker::obs {

enum class TraceEventKind : uint8_t {
  kAdmit = 0,    ///< context opened; detail = effective QoS level
  kCacheHit,     ///< terminal: served from the result cache (no context)
  kDrop,         ///< terminal: shed; detail 1 = admission, 2 = pool saturated
  kCluster,      ///< joined a dispatched batch; detail = batch size
  kDispatch,     ///< handed to a backend exchange; detail = replica index
  kRetry,        ///< re-dispatch scheduled; detail = attempts consumed
  kDeadline,     ///< terminal: shed on deadline expiry; detail = attempts
  kComplete,     ///< terminal: answered; detail = http::Fidelity
  kCoalesce,     ///< attached as waiter to an in-flight identical fetch;
                 ///< detail = waiters on the flight after attaching
  kSwr,          ///< stale value served within the revalidation grace
                 ///< window; detail 1 = this request claimed the refresh
  kOverload,     ///< overload-mode flip (request_id 0: a broker-level
                 ///< event); detail 1 = entered, 0 = exited; level carries
                 ///< the effective threshold, saturated at 255
};

const char* trace_event_name(TraceEventKind kind);

/// True for the kinds that end a request's story (exactly one per request).
bool trace_event_terminal(TraceEventKind kind);

struct TraceEvent {
  double t = 0.0;           ///< owner's clock (reactor or sim seconds)
  uint64_t request_id = 0;
  uint64_t seq = 0;         ///< recorder-local monotone sequence
  TraceEventKind kind = TraceEventKind::kAdmit;
  uint8_t level = 0;        ///< base QoS class
  uint16_t detail = 0;      ///< kind-specific (see TraceEventKind)
};

class FlightRecorder {
 public:
  /// `capacity` is rounded up to a power of two; 0 disables recording.
  explicit FlightRecorder(size_t capacity);

  void record(double t, uint64_t request_id, TraceEventKind kind,
              uint8_t level, uint16_t detail = 0) {
    if (events_.empty()) return;  // disabled
    TraceEvent& slot = events_[head_ & mask_];
    slot.t = t;
    slot.request_id = request_id;
    slot.seq = head_;
    slot.kind = kind;
    slot.level = level;
    slot.detail = detail;
    ++head_;
  }

  /// Retained events, oldest first.
  std::vector<TraceEvent> dump() const;

  /// Events ever recorded (including overwritten ones).
  uint64_t recorded() const { return head_; }
  /// Events lost to wraparound.
  uint64_t dropped() const {
    return head_ > events_.size() ? head_ - events_.size() : 0;
  }
  size_t capacity() const { return events_.size(); }
  void clear() { head_ = 0; }

 private:
  std::vector<TraceEvent> events_;
  uint64_t head_ = 0;  ///< total records; head_ & mask_ = next slot
  uint64_t mask_ = 0;
};

}  // namespace sbroker::obs
