// Backend abstraction the broker forwards to.
//
// The broker core is I/O-free: a Backend is anything that can asynchronously
// answer a payload. The simulation substrate wraps a DES station + link +
// database; the real-socket substrate wraps a TCP client. Completion
// callbacks carry the caller's notion of *now* so the core never reads a
// clock itself.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>

#include "core/request.h"

namespace sbroker::core {

/// Wire-level counters a transport-backed Backend can report. Pure data so
/// the I/O-free core can aggregate them (BrokerMetrics carries one per
/// broker) without knowing anything about sockets. Backends without a real
/// transport (simulation, in-process) report all-zero stats.
struct ChannelStats {
  uint64_t calls = 0;               ///< invoke() count
  uint64_t connections_opened = 0;  ///< physical connection setups
  uint64_t open_connections = 0;    ///< currently open physical connections
  uint64_t flushes = 0;             ///< cycle-end gather writes to sockets
  /// Requests queued for those writes; a re-issued request counts once per
  /// connection it was queued on.
  uint64_t requests_written = 0;
  uint64_t rejections = 0;          ///< channel-saturated backpressure failures
  uint64_t retries = 0;             ///< exchanges re-issued after connection loss
  uint64_t timeouts = 0;            ///< half-stalled exchanges failed on deadline
  uint64_t cancels = 0;             ///< exchanges abandoned via a cancel token
  uint64_t peak_in_flight = 0;      ///< deepest pipeline seen on one connection

  void merge(const ChannelStats& other) {
    calls += other.calls;
    connections_opened += other.connections_opened;
    open_connections += other.open_connections;
    flushes += other.flushes;
    requests_written += other.requests_written;
    rejections += other.rejections;
    retries += other.retries;
    timeouts += other.timeouts;
    cancels += other.cancels;
    peak_in_flight = std::max(peak_in_flight, other.peak_in_flight);
  }
};

class Backend {
 public:
  /// (now, ok, reply payload). `ok == false` means the backend failed or was
  /// unreachable; `payload` may then carry a diagnostic.
  using Completion = std::function<void(double now, bool ok, const std::string& payload)>;

  struct Call {
    std::string payload;
    /// True when the connection pool opened a fresh physical connection for
    /// this call; transports charge their setup latency accordingly.
    bool needs_connection_setup = false;
    /// Remaining deadline budget at dispatch, seconds; 0 = unbounded. Real
    /// transports use it to bound how long a half-stalled connection may sit
    /// readable-but-incomplete, and forward it downstream (X-Deadline-Ms).
    double timeout = 0.0;
  };

  virtual ~Backend() = default;

  /// Issues `call`; `done` fires exactly once, later or re-entrantly.
  virtual void invoke(const Call& call, Completion done) = 0;

  /// Issues `call` with a cancellation token. When the caller abandons the
  /// exchange (deadline expiry harvested its last member), `token->cancel()`
  /// fires on the shared timeline; the backend should stop the work — kill a
  /// stalled connection, re-issue its other queued exchanges — and complete
  /// promptly with ok=false. The default ignores the token, so backends that
  /// predate cancellation keep working unchanged (their completions after a
  /// harvest are counted as late and dropped by the broker).
  virtual void invoke(const Call& call, const CancelTokenPtr& token, Completion done) {
    (void)token;
    invoke(call, std::move(done));
  }

  /// Wire-level counters for transport-backed implementations; the default
  /// (simulated / in-process backends) reports zeros.
  virtual ChannelStats channel_stats() const { return {}; }
};

}  // namespace sbroker::core
