// Userspace link-degradation shim (tc/netem in a process).
//
// A `NetemProxy` is a TCP relay that sits between the real broker daemon and
// a backend: it accepts connections on its own port, opens one upstream
// connection per accepted one, and forwards bytes in both directions after
// applying a link profile — fixed propagation latency, uniform jitter, and a
// step-trace of bandwidth over time (the cellular-uplink shape `sim::Link`
// models in virtual time, here in wall-clock time). All connections through
// one proxy share the bandwidth cursor per direction, so a sag queues every
// channel behind it — the congested backend channel of the paper's §I,
// finally applied to the daemon's deadline/retry/SWR/overload machinery over
// real sockets.
//
// Byte order per connection direction is preserved: delivery times are
// clamped monotone exactly like sim::Link's FIFO delivery (TCP cannot
// reorder; neither may the shim), and delayed chunks wait in a per-direction
// queue drained from its head.
//
// The proxy runs its own reactor thread; construct, read `port()`, point a
// backend channel at it, destroy to tear down.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/reactor.h"
#include "net/tcp.h"
#include "sim/link.h"
#include "util/rng.h"

namespace sbroker::net {

class NetemProxy {
 public:
  /// Reuses sim::Link::Params as the profile: latency/jitter in seconds,
  /// bandwidth_trace in bytes/second over wall-clock seconds since proxy
  /// start (trace_period loops it). An all-zero profile relays unshaped.
  NetemProxy(uint16_t upstream_port, sim::Link::Params profile,
             uint64_t seed = 1);
  ~NetemProxy();
  NetemProxy(const NetemProxy&) = delete;
  NetemProxy& operator=(const NetemProxy&) = delete;

  uint16_t port() const { return port_; }

  uint64_t bytes_relayed() const { return bytes_relayed_.load(); }
  uint64_t chunks_relayed() const { return chunks_relayed_.load(); }
  /// Worst single-chunk delay applied so far, seconds.
  double max_delay() const { return max_delay_ns_.load() * 1e-9; }

 private:
  struct Pipe;

  void relay(const std::shared_ptr<Pipe>& pipe, bool downstream,
             std::string bytes);
  /// Arms the drain timer for the head of `dir`'s delayed-chunk queue.
  void arm(const std::shared_ptr<Pipe>& pipe, int dir);
  /// Writes every chunk of `dir`'s queue that is due, in order; re-arms for
  /// the rest.
  void drain(const std::shared_ptr<Pipe>& pipe, int dir);
  double bandwidth_at(double now) const;

  Reactor reactor_;
  sim::Link::Params profile_;
  util::Rng rng_;  // reactor thread only
  double started_at_ = 0.0;
  // Shared channel cursors (reactor thread only): when each direction's
  // transmission pipe frees up.
  double tx_free_at_[2] = {0.0, 0.0};
  std::unique_ptr<TcpListener> listener_;
  uint16_t port_ = 0;
  std::atomic<uint64_t> bytes_relayed_{0};
  std::atomic<uint64_t> chunks_relayed_{0};
  std::atomic<uint64_t> max_delay_ns_{0};
  std::thread thread_;
};

}  // namespace sbroker::net
