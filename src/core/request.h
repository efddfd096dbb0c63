// Per-request lifecycle state.
//
// The broker answers every message exactly once, at some fidelity — the
// paper's promise only holds if the broker can give up on a request that a
// backend will never answer. RequestContext carries everything needed to do
// that: the identity and QoS classification fixed at submit time, the
// absolute deadline after which the broker sheds the request itself, and the
// attempt budget that bounds retries against other replicas. One context
// exists per admitted request, from admission until its single reply.
//
// CancelToken is the backend-facing half: when the broker abandons an
// in-flight exchange (all its members expired), it fires the token so the
// transport can kill the stalled connection and recover its other queued
// exchanges, instead of leaking the socket until process exit.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "core/arena.h"
#include "core/qos.h"
#include "http/wire.h"

namespace sbroker::core {

/// Sentinel for "no deadline": comparisons against it never expire.
inline constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

/// Diagnostic payload of a deadline-shed reply: it tells a busy reply that
/// missed its deadline from an admission drop.
inline constexpr std::string_view kDeadlineExceeded = "deadline exceeded";

/// Reply delivery callback; fires exactly once per submitted request.
using ReplyFn = std::function<void(const http::BrokerReply&)>;

/// Allocation-free reply for the cache-served fast path: the payload is a
/// view into the caller's arena (or the cache entry copy made there), valid
/// only for the duration of the callback.
struct ReplyView {
  uint64_t request_id = 0;
  http::Fidelity fidelity = http::Fidelity::kCached;
  std::string_view payload;

  /// The owning copy, for a ReplyFn sink.
  http::BrokerReply owned() const { return {request_id, fidelity, std::string(payload)}; }
};

/// Non-owning callable reference for ReplyView delivery. A std::function
/// here would defeat the point — capturing the connection pointer pushes
/// most closures past the SBO threshold and back onto the heap. The referent
/// must outlive the try_submit_fast() call, which always invokes it
/// synchronously or not at all.
class ReplyViewFn {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, ReplyViewFn>>>
  ReplyViewFn(F&& fn)  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(&fn))),
        call_([](void* obj, const ReplyView& r) {
          (*static_cast<std::remove_reference_t<F>*>(obj))(r);
        }) {}

  void operator()(const ReplyView& r) const { call_(obj_, r); }

 private:
  void* obj_;
  void (*call_)(void*, const ReplyView&);
};

/// Deadline / retry policy knobs, part of BrokerConfig. Retries back off by
/// kRetryBackoff (core/broker.h).
struct LifecycleConfig {
  /// Deadline applied to requests that do not carry their own, in seconds
  /// after submit. 0 = no implicit deadline. Set it for a deployment whose
  /// HTTP clients send no X-Deadline-Ms, so their requests still shed.
  double default_deadline = 0.0;
  /// Upper clamp on client-supplied deadlines, seconds. 0 = no clamp. Set it
  /// for a deployment whose clients may send an unbounded X-Deadline-Ms.
  double max_deadline = 0.0;
  /// Backend exchanges one request may consume (first attempt included).
  /// 1 = no broker-level retry, the pre-lifecycle behaviour.
  int max_attempts = 1;
};

/// One admitted request, from admission until its single reply. Replaces the
/// scattered PendingMember / effective-level / outstanding bookkeeping.
///
/// Contexts are placement-new'd into a per-request Arena that also holds the
/// canonical (post-rewrite) payload bytes; `arena` points back at it so the
/// exactly-once terminal (end_context) can free everything in one step. The
/// broker owns construction and destruction — see destroy_context().
struct RequestContext {
  /// Broker-assigned and unique for the broker's lifetime: it keys contexts,
  /// flights, batches and the deadline/retry heaps, because a client may
  /// reuse its own id while the first request is still in flight.
  uint64_t id = 0;
  uint64_t request_id = 0;       ///< the client's id, echoed in reply + trace
  QosLevel base_level = 1;       ///< as classified at submit (metrics key)
  QosLevel effective_level = 1;  ///< after transaction escalation
  double submitted_at = 0.0;
  double deadline = kNoDeadline; ///< absolute, caller's clock
  double batched_at = 0.0;       ///< joined a cluster batch; 0 = not yet
  double dispatched_at = 0.0;    ///< last handoff to a backend exchange
  int attempts = 0;              ///< backend exchanges consumed so far
  int attempt_budget = 1;
  uint64_t exchange = 0;         ///< in-flight exchange id; 0 = none
  std::optional<size_t> last_backend;  ///< replica of the last attempt
  /// Post-rewrite payload sent to backends; bytes live in `arena`.
  std::string_view payload;
  bool degraded = false;         ///< rewritten to lower fidelity
  /// A prefetch or stale refresh: lowest class, no reply sink, counted in
  /// BrokerMetrics::background instead of the per-class client counters.
  bool background = false;
  Arena* arena = nullptr;        ///< owns this context and its payload bytes
  ReplyFn reply;

  /// Seconds of deadline budget left; kNoDeadline when none was set.
  double remaining(double now) const {
    return deadline == kNoDeadline ? kNoDeadline : deadline - now;
  }
};

/// Cooperative cancellation handle threaded into Backend::invoke. Single
/// threaded, like everything reachable from the broker core: the owner and
/// the backend live on the same reactor/sim timeline. The callback fires at
/// most once; arming an already-cancelled token fires it immediately.
class CancelToken {
 public:
  void set_callback(std::function<void()> fn) {
    if (cancelled_) {
      if (fn) fn();
      return;
    }
    on_cancel_ = std::move(fn);
  }

  void cancel() {
    if (cancelled_) return;
    cancelled_ = true;
    if (on_cancel_) {
      auto fn = std::move(on_cancel_);
      on_cancel_ = nullptr;
      fn();
    }
  }

  bool cancelled() const { return cancelled_; }

 private:
  bool cancelled_ = false;
  std::function<void()> on_cancel_;
};

using CancelTokenPtr = std::shared_ptr<CancelToken>;

}  // namespace sbroker::core
