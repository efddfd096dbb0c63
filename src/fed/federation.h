// Broker federation: N sharded daemons as one cache/admission tier.
//
// The paper's broker is a single box between the web tier and the backends.
// This module federates N such boxes (separate processes, real sockets)
// into one logical tier along three axes:
//
//   * Partitioning. A consistent-hash Ring (fed/ring.h) keyed on the
//     canonical query — the same string the result cache and single-flight
//     table key on — assigns every query an owner node. A non-owner that
//     misses its local cache forwards the fetch to the owner over a
//     persistent kPeerFetch channel instead of hitting the backend, so the
//     tier's effective cache is the union of the nodes' caches and each
//     query's backend fetches collapse onto one node's single-flight table.
//     The owner serves from cache or its own backend and never re-forwards
//     (it answers a kPeerFetch locally by construction), so forwarding
//     loops are impossible.
//
//   * Replication. A key whose owner serves it kHotThreshold times within
//     kHotWindow seconds is pushed (kPeerPush) to every
//     peer's cache, converting the tier back to local-hit behaviour for
//     the keys where forwarding latency would actually be paid often.
//
//   * Global view. Every `gossip_interval` seconds each node broadcasts a
//     kGossip frame (outstanding count, effective admission threshold,
//     overload flag). Receivers fold these into a GlobalView (a report
//     older than three intervals is stale) whose
//     remote_pressure() feeds each broker's admission decision as a tier
//     load floor — a node with local headroom sheds for the tier when its
//     peers are drowning (PAPER.md's "global view" overload control).
//
// Deployment shape: every node is a FederatedDaemon wrapping one
// ShardedBrokerDaemon. All federation traffic rides the node's ordinary
// frame port; there is no separate control port.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fed/global_view.h"
#include "fed/peer_channel.h"
#include "fed/ring.h"
#include "net/admin.h"
#include "net/fed_hook.h"
#include "net/sharded_daemon.h"

namespace sbroker::fed {

/// Owner-side serves of one key per window that make it hot (replicated).
inline constexpr uint32_t kHotThreshold = 8;
/// Seconds per hotness window.
inline constexpr double kHotWindow = 1.0;

struct FedNodeConfig {
  uint32_t node_id = 0;              ///< this node's index into `peer_ports`
  std::vector<uint16_t> peer_ports;  ///< every member's main port, self included
  double forward_timeout = 0.25;  ///< peer exchange deadline, seconds
  double dial_backoff = 0.3;    ///< seconds between dials to a down peer
  /// Seconds between load broadcasts; a peer's report goes stale after three.
  double gossip_interval = 0.1;
};

/// Node-wide federation counters, shared by every shard's peering (relaxed
/// atomics; read by the admin plane from its own thread).
struct FedCounters {
  std::atomic<uint64_t> forwards_sent{0};     ///< misses forwarded to owners
  std::atomic<uint64_t> forward_replies{0};   ///< owner answers relayed
  std::atomic<uint64_t> forward_fails{0};     ///< forwards failed -> local fallback
  std::atomic<uint64_t> fetches_served{0};    ///< kPeerFetch served as owner
  std::atomic<uint64_t> pushes_sent{0};       ///< hot-key pushes sent (per peer)
  std::atomic<uint64_t> pushes_received{0};   ///< hot-key pushes installed
  std::atomic<uint64_t> gossip_sent{0};       ///< gossip frames sent (per peer)
  std::atomic<uint64_t> gossip_received{0};   ///< gossip frames folded in
  std::atomic<uint64_t> gossip_rounds{0};     ///< broadcast rounds completed
};

/// One shard's federation endpoint: owns that shard's per-peer channels and
/// implements the daemon-facing hook. Lives on the shard's reactor thread
/// except where members document otherwise.
class ShardPeering : public net::FederationHook {
 public:
  ShardPeering(net::Reactor& reactor, const FedNodeConfig& config,
               const Ring& ring, GlobalView& view, FedCounters& counters);

  // FederationHook (all on the owning shard's reactor thread).
  bool try_forward(const http::BrokerRequest& request, ForwardDone done) override;
  void on_served(std::string_view key, std::string_view value,
                 http::Fidelity fidelity) override;
  void on_peer_fetch() override;
  void on_push(const net::frame::Push& push) override;
  void on_gossip(const net::frame::Gossip& gossip) override;

  /// Broadcasts one gossip frame to every usable peer (gossip timer,
  /// reactor thread only). Returns peers actually sent to.
  size_t broadcast_gossip(const net::frame::Gossip& gossip);

  /// This node currently acts as owner for `key`: ring owner among the
  /// peers whose channels are usable, self always counted alive.
  bool acting_owner(std::string_view key) const;

  /// Peer channel by node id; nullptr for self. Status getters on the
  /// channel are safe from any thread.
  const PeerChannel* channel(size_t node) const {
    return node < channels_.size() ? channels_[node].get() : nullptr;
  }

 private:
  struct HotEntry {
    uint32_t count = 0;
    double window_start = 0.0;
    bool pushed = false;  ///< already replicated in this window
  };

  /// Replicates `key`/`value` to every usable peer.
  void push_to_peers(std::string_view key, std::string_view value);

  net::Reactor& reactor_;
  const FedNodeConfig& config_;
  const Ring& ring_;
  GlobalView& view_;
  FedCounters& counters_;
  std::vector<std::unique_ptr<PeerChannel>> channels_;  ///< [node]; self = null
  std::unordered_map<std::string, HotEntry> hot_;       ///< per-shard hotness
};

/// One federation member: a ShardedBrokerDaemon plus its ring position,
/// peer channels, gossip loop, and tier-load admission input.
class FederatedDaemon {
 public:
  /// Binds the daemon's listener on config.peer_ports[config.node_id]
  /// (overriding daemon_config.listen_port) and wires the federation into
  /// every shard. Call add_backend() then start(), as with the raw daemon.
  FederatedDaemon(std::string name, net::ShardedBrokerDaemonConfig daemon_config,
                  FedNodeConfig fed_config);
  ~FederatedDaemon();  ///< stops first so shard hook pointers never dangle
  FederatedDaemon(const FederatedDaemon&) = delete;
  FederatedDaemon& operator=(const FederatedDaemon&) = delete;

  void add_backend(const net::ShardedBrokerDaemon::BackendFactory& factory,
                   double weight = 1.0);
  void start();  ///< launches shard threads, then the gossip loop
  void stop();   ///< idempotent

  net::ShardedBrokerDaemon& daemon() { return daemon_; }
  const Ring& ring() const { return ring_; }
  GlobalView& view() { return view_; }
  const FedCounters& counters() const { return counters_; }
  uint16_t port() const { return daemon_.port(); }
  uint16_t admin_port() const { return daemon_.admin_port(); }
  uint32_t node_id() const { return fed_config_.node_id; }

  /// Federation snapshot for /statusz and /metrics (admin thread; reads only
  /// atomics, the mutex-guarded view, and the immutable ring).
  net::FederationStatus admin_status() const;

 private:
  void arm_gossip();   ///< posts the first gossip tick onto shard 0
  void gossip_tick();  ///< one broadcast; re-arms itself on shard 0's timer

  std::string name_;
  FedNodeConfig fed_config_;
  Ring ring_;
  GlobalView view_;
  FedCounters counters_;
  net::ShardedBrokerDaemon daemon_;
  std::vector<std::unique_ptr<ShardPeering>> peerings_;  ///< [shard]
  std::atomic<bool> gossip_stop_{true};
};

/// Builds the member identity strings ("127.0.0.1:<port>") the ring hashes;
/// shared by the daemon and the cross-process ownership test.
std::vector<std::string> member_identities(const std::vector<uint16_t>& ports);

}  // namespace sbroker::fed
