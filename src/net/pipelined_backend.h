// Pipelined, multiplexed backend channel.
//
// The paper's Section III claims "a single connection between the service
// broker and the backend server can be multiplexed to serve multiple
// applications". core::ConnectionPool models that accounting; this class
// makes the real wire honor it: a small fixed set of persistent TCP
// connections to one HTTP backend, each carrying many in-flight requests at
// once (HTTP/1.1 pipelining — responses come back in request order, so a
// per-connection FIFO of pending exchanges matches them exactly).
//
// Compared to stop-and-wait (one outstanding request per connection, ~one
// socket per in-flight request under load; Config::pipeline_depth = 1 is
// that control), this channel:
//
//   * caps physical connections at Config::max_connections and pipelines up
//     to Config::pipeline_depth exchanges per connection — at concurrency C
//     the daemon keeps min(C, max_connections) hot sockets instead of ~C;
//   * coalesces writes: invoke() queues the request on its connection, and
//     every request queued during one reactor wakeup leaves in that
//     connection's one cycle-end gather write (TcpConn::queue), so a burst
//     of dispatches becomes one send per connection, not one per request;
//   * applies backpressure: past max_connections * pipeline_depth total
//     in-flight, invoke() fails fast (ok=false, "channel saturated").
//     Construct with Config::from_pool(broker.pool) and the broker's own
//     ConnectionPool accounting enforces the identical bound first, so sim
//     and real substrates agree and the channel cap is a safety net;
//   * recovers from mid-pipeline connection loss: the head exchange is
//     failed only if its response was partially received (re-issuing it
//     could double-execute); every other queued exchange is re-issued on a
//     surviving or fresh connection, each completing exactly once, with at
//     most kMaxAttempts assignments before it fails;
//   * bounds half-stalled connections: an exchange that has not produced a
//     full response within its deadline (Call::timeout when the broker set
//     one, else Config::response_timeout) fails with a timeout, its
//     connection is killed — FIFO matching past an abandoned exchange would
//     mis-pair — and the other queued exchanges re-issue via the loss path.
//     A broker cancel token (deadline harvest) triggers the same teardown.
//
// Single-threaded: everything runs on the owning shard's reactor thread.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/backend.h"
#include "core/pool.h"
#include "http/parser.h"
#include "net/tcp.h"

namespace sbroker::net {

class PipelinedBackend : public core::Backend,
                         public std::enable_shared_from_this<PipelinedBackend> {
 public:
  /// Connection assignments per exchange: one re-issue after a connection
  /// loss, then the exchange fails.
  static constexpr size_t kMaxAttempts = 2;

  struct Config {
    size_t max_connections = 4;  ///< physical connections to the backend
    size_t pipeline_depth = 64;  ///< in-flight exchanges per connection
    /// Fallback bound on how long one exchange may wait for its full
    /// response when the broker set no Call::timeout; 0 = wait forever
    /// (pre-lifecycle behaviour). Set it for a replica pool fronted without
    /// broker deadlines, where a stalled replica must fail over (a broker
    /// deadline would shed the request instead of retrying it elsewhere).
    double response_timeout = 30.0;

    /// Mirrors the broker's connection-pool accounting so the wire enforces
    /// exactly the bounds core::ConnectionPool already promised.
    static Config from_pool(const core::PoolConfig& pool) {
      Config c;
      c.max_connections = pool.max_connections;
      c.pipeline_depth = pool.multiplex_capacity;
      return c;
    }
  };

  PipelinedBackend(Reactor& reactor, uint16_t port);  ///< default Config
  PipelinedBackend(Reactor& reactor, uint16_t port, Config config);

  void invoke(const Call& call, Completion done) override;
  void invoke(const Call& call, const core::CancelTokenPtr& token,
              Completion done) override;
  core::ChannelStats channel_stats() const override;

  uint64_t connections_opened() const { return stats_.connections_opened; }
  uint64_t calls() const { return stats_.calls; }
  uint64_t flushes() const { return stats_.flushes; }
  uint64_t rejections() const { return stats_.rejections; }
  uint64_t retries() const { return stats_.retries; }
  uint64_t timeouts() const { return stats_.timeouts; }
  uint64_t cancels() const { return stats_.cancels; }
  size_t open_connections() const { return channels_.size(); }
  size_t in_flight() const;
  const Config& config() const { return config_; }

 private:
  struct Exchange {
    std::string wire;           ///< serialized request, kept for re-issue
    size_t parts_expected = 1;  ///< MGET part count
    Completion done;
    size_t attempts = 0;  ///< connection assignments so far
    bool completed = false;
    double deadline_at = 0.0;  ///< reactor time the exchange gives up; 0 = never
    uint64_t channel = 0;      ///< id of the carrying connection; 0 = none
  };
  using ExchangePtr = std::shared_ptr<Exchange>;

  struct Channel {
    uint64_t id = 0;
    std::shared_ptr<TcpConn> conn;
    std::deque<ExchangePtr> pipeline;  ///< FIFO awaiting responses
    http::ResponseParser parser;
  };

  /// Assigns the exchange to the least-loaded connection with pipeline room,
  /// opening a new connection when allowed. With `allow_overflow` (re-issue
  /// after a connection death) the per-connection depth may be exceeded —
  /// the global cap still holds because the exchange was already in flight.
  void enqueue(ExchangePtr exchange, bool allow_overflow);
  Channel* pick_channel(bool allow_overflow);
  Channel* open_channel();
  std::shared_ptr<Channel> find_channel(uint64_t id);
  void on_data(uint64_t channel_id, std::string_view bytes);
  void handle_close(uint64_t channel_id);
  void complete(const ExchangePtr& exchange, bool ok, std::string payload);
  void fail_later(Completion done, std::string reason);
  /// Fails `exchange` (timeout or broker cancel) and kills its carrying
  /// connection — the loss path then re-issues the other queued exchanges.
  void abandon(const ExchangePtr& exchange, std::string reason, bool is_timeout);
  void arm_sweep(double deadline_at);
  void sweep_timeouts();

  Reactor& reactor_;
  uint16_t port_;
  Config config_;
  std::vector<std::shared_ptr<Channel>> channels_;
  uint64_t next_channel_id_ = 1;
  bool sweep_armed_ = false;
  double next_sweep_at_ = 0.0;
  Reactor::TimerId sweep_timer_ = 0;
  std::string connect_error_;  ///< last connect_tcp failure, for diagnostics
  core::ChannelStats stats_;
};

}  // namespace sbroker::net
