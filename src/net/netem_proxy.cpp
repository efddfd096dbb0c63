#include "net/netem_proxy.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <string>
#include <utility>

namespace sbroker::net {

// One relayed connection: the accepted (daemon-side) socket and its upstream
// (backend-side) peer. Direction 0 = client->upstream, 1 = upstream->client.
struct NetemProxy::Pipe {
  std::shared_ptr<TcpConn> client;
  std::shared_ptr<TcpConn> upstream;
  double last_delivery[2] = {0.0, 0.0};  ///< per-direction FIFO clamp
  /// Delayed chunks not yet written, per direction, in arrival order with
  /// their delivery times. One timer drains each queue from its head, so
  /// chunks leave in order however long the thread stalled between arming
  /// and firing.
  std::deque<std::pair<double, std::string>> due[2];
  bool timer_armed[2] = {false, false};
  bool source_closed[2] = {false, false};

  std::shared_ptr<TcpConn>& dest(int dir) { return dir == 0 ? upstream : client; }

  /// After the source side closed, the destination shuts down only once the
  /// last delayed chunk has been written — a close must not beat the bytes.
  void maybe_finish(int dir) {
    if (source_closed[dir] && due[dir].empty() && dest(dir) &&
        !dest(dir)->closed()) {
      dest(dir)->shutdown();
    }
  }
};

NetemProxy::NetemProxy(uint16_t upstream_port, sim::Link::Params profile,
                       uint64_t seed)
    : profile_(std::move(profile)), rng_(seed) {
  started_at_ = reactor_.now();
  listener_ = std::make_unique<TcpListener>(
      reactor_, 0, [this, upstream_port](int fd) {
        auto pipe = std::make_shared<Pipe>();
        pipe->client = TcpConn::adopt(reactor_, fd);
        int up_fd = -1;
        try {
          up_fd = connect_tcp(upstream_port);
        } catch (const std::exception&) {
          pipe->client->abort();
          return;
        }
        pipe->upstream = TcpConn::adopt(reactor_, up_fd);
        pipe->client->start(
            [this, pipe](std::string_view bytes) {
              relay(pipe, /*downstream=*/false, std::string(bytes));
            },
            [pipe]() {
              pipe->source_closed[0] = true;
              pipe->maybe_finish(0);
            });
        pipe->upstream->start(
            [this, pipe](std::string_view bytes) {
              relay(pipe, /*downstream=*/true, std::string(bytes));
            },
            [pipe]() {
              pipe->source_closed[1] = true;
              pipe->maybe_finish(1);
            });
      });
  port_ = listener_->port();
  thread_ = std::thread([this] { reactor_.run(); });
}

NetemProxy::~NetemProxy() {
  reactor_.stop();
  if (thread_.joinable()) thread_.join();
}

double NetemProxy::bandwidth_at(double now) const {
  if (profile_.bandwidth_trace.empty()) return profile_.bytes_per_second;
  double offset = std::max(0.0, now - started_at_);
  if (profile_.trace_period > 0.0) {
    offset = std::fmod(offset, profile_.trace_period);
  }
  double bw = profile_.bandwidth_trace.front().bytes_per_second;
  for (const sim::Link::BandwidthStep& step : profile_.bandwidth_trace) {
    if (step.at > offset) break;
    bw = step.bytes_per_second;
  }
  return bw;
}

void NetemProxy::relay(const std::shared_ptr<Pipe>& pipe, bool downstream,
                       std::string bytes) {
  int dir = downstream ? 1 : 0;
  bytes_relayed_.fetch_add(bytes.size(), std::memory_order_relaxed);
  chunks_relayed_.fetch_add(1, std::memory_order_relaxed);
  double now = reactor_.now();
  // Shared channel per direction: this chunk transmits after everything
  // already on the wire, at whatever the trace grants at that moment.
  double tx_end = std::max(now, tx_free_at_[dir]);
  double bw = bandwidth_at(tx_end);
  if (bw > 0) tx_end += static_cast<double>(bytes.size()) / bw;
  tx_free_at_[dir] = tx_end;
  double tail = profile_.latency;
  if (profile_.jitter > 0) tail += rng_.uniform_real(0.0, profile_.jitter);
  double deliver_at = tx_end + tail;
  // FIFO clamp per connection direction: TCP never reorders, so neither may
  // the shim when jitter draws cross.
  if (deliver_at < pipe->last_delivery[dir]) {
    deliver_at = pipe->last_delivery[dir];
  }
  pipe->last_delivery[dir] = deliver_at;
  double delay = deliver_at - now;
  uint64_t delay_ns = static_cast<uint64_t>(std::max(0.0, delay) * 1e9);
  uint64_t prev = max_delay_ns_.load(std::memory_order_relaxed);
  while (delay_ns > prev &&
         !max_delay_ns_.compare_exchange_weak(prev, delay_ns,
                                              std::memory_order_relaxed)) {
  }
  std::shared_ptr<TcpConn> dst = pipe->dest(dir);
  if (delay <= 0.0 && pipe->due[dir].empty()) {
    if (!dst->closed()) dst->queue(std::move(bytes));
    return;
  }
  pipe->due[dir].emplace_back(deliver_at, std::move(bytes));
  if (!pipe->timer_armed[dir]) arm(pipe, dir);
}

void NetemProxy::arm(const std::shared_ptr<Pipe>& pipe, int dir) {
  pipe->timer_armed[dir] = true;
  double delay = pipe->due[dir].front().first - reactor_.now();
  reactor_.add_timer(delay, [this, pipe, dir]() { drain(pipe, dir); });
}

void NetemProxy::drain(const std::shared_ptr<Pipe>& pipe, int dir) {
  pipe->timer_armed[dir] = false;
  double now = reactor_.now();
  std::shared_ptr<TcpConn> dst = pipe->dest(dir);
  auto& due = pipe->due[dir];
  while (!due.empty() && due.front().first <= now) {
    if (!dst->closed()) dst->queue(std::move(due.front().second));
    due.pop_front();
  }
  if (!due.empty()) {
    arm(pipe, dir);
    return;
  }
  pipe->maybe_finish(dir);
}

}  // namespace sbroker::net
