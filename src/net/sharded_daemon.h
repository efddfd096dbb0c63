// Multi-threaded sharded broker daemon.
//
// One BrokerDaemon per reactor thread ("shard"), all serving one TCP port.
// Each shard keeps the single-threaded core::ServiceBroker
// invariant — no locks anywhere on a shard's data path — and two pieces of
// state are deliberately global so the paper's semantics survive sharding:
//
//   * the result cache is one ResultCache of kCacheStripes stripes shared by
//     every shard, so a result fetched through shard A serves the identical
//     request arriving at shard B (otherwise sharding divides the hit rate
//     by N);
//   * the outstanding-request count is a shared atomic LoadTracker, so each
//     shard's OverloadController enforces the QoS thresholds against the
//     *global* load rather than 1/N of it.
//
// Connection distribution: one listener on shard 0 accepts every connection
// and hands the fds round-robin to the shard reactors via Reactor::post(), so
// N connections spread evenly over the shards whatever their source ports
// (kernel accept sharding, which hashed them, left a shard of 4 without any
// of 4 persistent connections in most runs). The optional UDP socket is
// bound once and served by shard 0 in every configuration.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/backend.h"
#include "core/broker.h"
#include "core/cache.h"
#include "core/flight.h"
#include "core/load.h"
#include "net/admin.h"
#include "net/broker_daemon.h"
#include "net/reactor.h"
#include "net/tcp.h"
#include "net/udp.h"

namespace sbroker::net {

/// Lock stripes of the shared result cache and of the shared single-flight
/// table.
inline constexpr size_t kCacheStripes = 8;

struct ShardedBrokerDaemonConfig {
  core::BrokerConfig broker;     ///< per-shard broker configuration
  size_t shards = 1;             ///< reactor threads; clamped to >= 1
  uint16_t listen_port = 0;      ///< shared TCP port; 0 = ephemeral
  bool enable_udp = true;        ///< ephemeral UDP port served by shard 0;
                                 ///< see udp_port()
  double tick_interval = 0.02;   ///< per-shard housekeeping tick, seconds
  /// No effect: the round-robin acceptor is the only accept path. Kept
  /// because perfbench's fixture still assigns it; it goes with the next
  /// benchmark change.
  bool force_acceptor_fallback = false;
  /// Admin plane (/healthz /metrics /statusz /tracez) on its own reactor
  /// thread; enabled by default on an ephemeral port.
  AdminConfig admin;
};

class ShardedBrokerDaemon {
 public:
  /// Builds one backend instance per shard, bound to that shard's reactor.
  /// Backends are per-shard because they (like everything else a shard owns)
  /// are only ever touched from that shard's thread.
  using BackendFactory =
      std::function<std::shared_ptr<core::Backend>(Reactor& reactor, size_t shard)>;

  /// Binds the listener (and the UDP socket); call add_backend() then
  /// start().
  ShardedBrokerDaemon(std::string name, ShardedBrokerDaemonConfig config);
  ~ShardedBrokerDaemon();  ///< stops and joins if still running
  ShardedBrokerDaemon(const ShardedBrokerDaemon&) = delete;
  ShardedBrokerDaemon& operator=(const ShardedBrokerDaemon&) = delete;

  /// Registers a backend replica (one instance per shard). Before start().
  void add_backend(const BackendFactory& factory, double weight = 1.0);

  /// Launches the shard reactor threads.
  void start();

  /// Stops every shard reactor and joins the threads. Idempotent. In-flight
  /// requests are abandoned (their connections close with the reactors).
  void stop();

  bool running() const { return running_; }
  size_t shards() const { return shards_.size(); }
  uint16_t port() const { return acceptor_->port(); }
  /// UDP datagram port (served by shard 0); 0 when UDP is disabled.
  uint16_t udp_port() const { return udp_ ? udp_->port() : 0; }
  /// Admin-plane HTTP port; 0 when the admin plane is disabled.
  uint16_t admin_port() const { return admin_ ? admin_->port() : 0; }

  core::ResultCache& shared_cache() { return *cache_; }
  const core::ResultCache& shared_cache() const { return *cache_; }
  core::LoadTracker& shared_load() { return *load_; }
  /// Cross-shard single-flight registry: identical misses arriving at
  /// different shards collapse to one backend fetch.
  core::FlightTable& shared_flights() { return *flights_; }

  /// Direct access to one shard (its broker, its counters). Only safe while
  /// stopped, or from that shard's own reactor thread.
  BrokerDaemon& shard(size_t i) { return *shards_.at(i)->daemon; }

  /// One shard's reactor. The object reference is valid for the daemon's
  /// lifetime; the usual rules apply to what may be called on it from other
  /// threads (post()/stop() only while running). The federation layer hangs
  /// its peer channels and gossip timer off these.
  Reactor& shard_reactor(size_t i) { return *shards_.at(i)->reactor; }

  /// Installs the admin plane's federation snapshot source (no-op when the
  /// admin plane is disabled). /metrics and /statusz then carry the
  /// sbroker_federation_* families.
  void set_federation_status(AdminServer::FederationFn federation) {
    if (admin_) admin_->set_federation(std::move(federation));
  }

  /// Per-class metrics folded across all shards. Safe from any non-shard
  /// thread: while running it snapshots each shard via Reactor::post(),
  /// when stopped it reads directly.
  core::BrokerMetrics aggregate_metrics();

  /// Main-port request / write-coalescing counters folded across all
  /// shards. Same threading contract as aggregate_metrics().
  WireStats aggregate_wire_stats();

  /// Per-shard status snapshots (metrics + latency histograms + replica
  /// health). Same threading contract as aggregate_metrics(); the admin
  /// plane's /metrics and /statusz are rendered from this.
  std::vector<ShardStatus> shard_status();

  /// Flight-recorder events from every shard, merged and sorted by time.
  std::vector<obs::TraceEvent> dump_trace();

 private:
  /// Calls `read` once per shard, in shard order: directly when stopped,
  /// else on that shard's reactor thread, waiting for each call to finish.
  void read_shards(const std::function<void(BrokerDaemon& daemon, size_t shard)>& read);

  struct Shard {
    std::unique_ptr<Reactor> reactor;
    std::unique_ptr<BrokerDaemon> daemon;
    std::thread thread;
  };

  void dispatch_accepted(int fd);

  std::string name_;
  ShardedBrokerDaemonConfig config_;
  std::shared_ptr<core::ResultCache> cache_;
  std::shared_ptr<core::LoadTracker> load_;
  std::shared_ptr<core::FlightTable> flights_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<TcpListener> acceptor_;  ///< on shard 0's reactor
  /// On shard 0's reactor; shard 0 replies through it. Torn down after the
  /// shard daemons and before the reactors (see the destructor).
  std::unique_ptr<UdpSocket> udp_;
  std::unique_ptr<AdminServer> admin_;
  size_t next_shard_ = 0;                  ///< round-robin cursor
  /// Read by the admin thread (snapshot path decision), written by
  /// start()/stop().
  std::atomic<bool> running_{false};
};

}  // namespace sbroker::net
