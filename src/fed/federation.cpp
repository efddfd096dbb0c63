#include "fed/federation.h"

#include <algorithm>
#include <utility>

#include "util/log.h"

namespace sbroker::fed {
namespace {

/// Per-shard hotness table cap; full reset beyond it. Hot keys re-earn
/// their count within one window, cold keys stay evicted.
constexpr size_t kHotMapCap = 4096;

}  // namespace

std::vector<std::string> member_identities(const std::vector<uint16_t>& ports) {
  std::vector<std::string> out;
  out.reserve(ports.size());
  for (uint16_t port : ports) {
    out.push_back("127.0.0.1:" + std::to_string(port));
  }
  return out;
}

// ---------------------------------------------------------------------------
// ShardPeering

ShardPeering::ShardPeering(net::Reactor& reactor, const FedNodeConfig& config,
                           const Ring& ring, GlobalView& view,
                           FedCounters& counters)
    : reactor_(reactor),
      config_(config),
      ring_(ring),
      view_(view),
      counters_(counters) {
  channels_.resize(config_.peer_ports.size());
  for (size_t i = 0; i < channels_.size(); ++i) {
    if (i == config_.node_id) continue;  // self needs no channel
    channels_[i] = std::make_unique<PeerChannel>(
        reactor_, config_.peer_ports[i], config_.dial_backoff, config_.node_id);
  }
}

bool ShardPeering::acting_owner(std::string_view key) const {
  size_t owner = ring_.owner_if(key, [this](size_t member) {
    return member == config_.node_id || channels_[member]->usable();
  });
  return owner == static_cast<size_t>(config_.node_id);
}

bool ShardPeering::try_forward(const http::BrokerRequest& request,
                               ForwardDone done) {
  // Ownership among live peers only: a down owner's range falls to its ring
  // successor, and when that successor is us we fetch locally instead.
  size_t owner = ring_.owner_if(request.payload, [this](size_t member) {
    return member == config_.node_id || channels_[member]->usable();
  });
  if (owner == Ring::kNobody ||
      owner == static_cast<size_t>(config_.node_id)) {
    return false;
  }
  // Never wait on a peer past the client's remaining budget.
  double timeout = config_.forward_timeout;
  if (request.deadline_ms > 0) {
    timeout = std::min(timeout, request.deadline_ms / 1000.0);
  }
  // The transaction tag travels with the fetch: the owner's broker is the
  // one that admits it, so it must see the step to escalate.
  bool sent = channels_[owner]->fetch(
      net::frame::Request{0, request.qos_level, request.deadline_ms,
                          request.payload, request.txn_id, request.txn_step},
      timeout,
      [this, done = std::move(done)](bool ok, http::Fidelity fidelity,
                                     uint8_t flags, std::string payload) {
        if (ok) {
          counters_.forward_replies.fetch_add(1, std::memory_order_relaxed);
        } else {
          counters_.forward_fails.fetch_add(1, std::memory_order_relaxed);
        }
        done(ForwardResult{ok, fidelity, flags, std::move(payload)});
      });
  if (sent) counters_.forwards_sent.fetch_add(1, std::memory_order_relaxed);
  return sent;
}

void ShardPeering::on_served(std::string_view key, std::string_view value,
                             http::Fidelity fidelity) {
  // Only real answers replicate; busy notices and errors are not results.
  if (fidelity != http::Fidelity::kFull && fidelity != http::Fidelity::kCached) {
    return;
  }
  // Only the acting owner counts hotness and pushes: every tier-wide access
  // to a hot key funnels through its owner (local hit there, or forwarded
  // fetch), so the owner sees the true access rate — and exactly one node
  // pushes, instead of N nodes storming each other.
  if (!acting_owner(key)) return;
  double now = reactor_.now();
  auto [it, inserted] = hot_.try_emplace(std::string(key));
  HotEntry& entry = it->second;
  if (inserted || now - entry.window_start > kHotWindow) {
    entry.window_start = now;
    entry.count = 0;
    entry.pushed = false;
  }
  ++entry.count;
  if (!entry.pushed && entry.count >= kHotThreshold) {
    entry.pushed = true;  // once per window, not once per access past it
    push_to_peers(key, value);
  }
  if (hot_.size() > kHotMapCap) hot_.clear();
}

void ShardPeering::push_to_peers(std::string_view key, std::string_view value) {
  for (auto& channel : channels_) {
    if (!channel) continue;
    if (channel->send_push(key, value)) {
      counters_.pushes_sent.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void ShardPeering::on_peer_fetch() {
  counters_.fetches_served.fetch_add(1, std::memory_order_relaxed);
}

void ShardPeering::on_push(const net::frame::Push& push) {
  (void)push;  // the daemon already installed key -> value in the cache
  counters_.pushes_received.fetch_add(1, std::memory_order_relaxed);
}

void ShardPeering::on_gossip(const net::frame::Gossip& gossip) {
  counters_.gossip_received.fetch_add(1, std::memory_order_relaxed);
  view_.update(gossip);
}

size_t ShardPeering::broadcast_gossip(const net::frame::Gossip& gossip) {
  size_t sent = 0;
  for (auto& channel : channels_) {
    if (!channel) continue;
    if (channel->send_gossip(gossip)) {
      counters_.gossip_sent.fetch_add(1, std::memory_order_relaxed);
      ++sent;
    }
  }
  return sent;
}

// ---------------------------------------------------------------------------
// FederatedDaemon

FederatedDaemon::FederatedDaemon(std::string name,
                                 net::ShardedBrokerDaemonConfig daemon_config,
                                 FedNodeConfig fed_config)
    : name_(std::move(name)),
      fed_config_(std::move(fed_config)),
      ring_(member_identities(fed_config_.peer_ports)),
      view_(fed_config_.peer_ports.size(), 3.0 * fed_config_.gossip_interval),
      daemon_(name_,
              [&]() {
                daemon_config.listen_port =
                    fed_config_.peer_ports.at(fed_config_.node_id);
                return std::move(daemon_config);
              }()) {
  peerings_.reserve(daemon_.shards());
  for (size_t i = 0; i < daemon_.shards(); ++i) {
    peerings_.push_back(std::make_unique<ShardPeering>(
        daemon_.shard_reactor(i), fed_config_, ring_, view_, counters_));
    daemon_.shard(i).set_federation(peerings_.back().get());
    // The gossip view enters admission as a tier-wide load floor.
    daemon_.shard(i).broker().set_tier_load(
        [this]() { return view_.remote_pressure(); });
  }
  daemon_.set_federation_status([this]() { return admin_status(); });
}

FederatedDaemon::~FederatedDaemon() { stop(); }

void FederatedDaemon::add_backend(
    const net::ShardedBrokerDaemon::BackendFactory& factory, double weight) {
  daemon_.add_backend(factory, weight);
}

void FederatedDaemon::start() {
  daemon_.start();
  if (fed_config_.peer_ports.size() > 1) {
    gossip_stop_.store(false, std::memory_order_relaxed);
    arm_gossip();
  }
}

void FederatedDaemon::stop() {
  gossip_stop_.store(true, std::memory_order_relaxed);
  daemon_.stop();
}

void FederatedDaemon::arm_gossip() {
  // Timers are shard-thread-only state, so the repeating broadcast is armed
  // by posting the first tick onto shard 0's reactor; each tick re-arms the
  // next. The closures capture only `this` (no owning self-reference — a
  // closure holding a shared_ptr to itself leaks when the reactor dies with
  // the timer armed), which the daemon outlives: stop() joins the shard
  // threads before this object is torn down, and an armed timer dies with
  // its reactor. Stop is an atomic flag: a tick racing stop() is harmless.
  daemon_.shard_reactor(0).post([this]() { gossip_tick(); });
}

void FederatedDaemon::gossip_tick() {
  // Runs on shard 0's thread; reads the shared LoadTracker (atomic) and
  // shard 0's overload controller (same thread, so in-contract) and fans
  // out through shard 0's channels.
  if (gossip_stop_.load(std::memory_order_relaxed)) return;
  net::frame::Gossip gossip;
  gossip.node = fed_config_.node_id;
  gossip.outstanding = static_cast<uint32_t>(
      std::max(0.0, daemon_.shared_load().load()));
  const core::OverloadController& control =
      daemon_.shard(0).broker().overload_control();
  gossip.threshold = control.threshold();
  gossip.overloaded = control.overloaded();
  peerings_[0]->broadcast_gossip(gossip);
  counters_.gossip_rounds.fetch_add(1, std::memory_order_relaxed);
  daemon_.shard_reactor(0).add_timer(fed_config_.gossip_interval,
                                     [this]() { gossip_tick(); });
}

net::FederationStatus FederatedDaemon::admin_status() const {
  net::FederationStatus status;
  status.node_id = fed_config_.node_id;
  status.nodes = fed_config_.peer_ports.size();
  status.vnodes = ring_.vnodes();
  status.ring_share = ring_.share(fed_config_.node_id);
  status.remote_pressure = view_.remote_pressure();
  status.forwards_sent = counters_.forwards_sent.load(std::memory_order_relaxed);
  status.forward_replies =
      counters_.forward_replies.load(std::memory_order_relaxed);
  status.forward_fails = counters_.forward_fails.load(std::memory_order_relaxed);
  status.fetches_served =
      counters_.fetches_served.load(std::memory_order_relaxed);
  status.pushes_sent = counters_.pushes_sent.load(std::memory_order_relaxed);
  status.pushes_received =
      counters_.pushes_received.load(std::memory_order_relaxed);
  status.gossip_sent = counters_.gossip_sent.load(std::memory_order_relaxed);
  status.gossip_received =
      counters_.gossip_received.load(std::memory_order_relaxed);
  status.gossip_rounds = counters_.gossip_rounds.load(std::memory_order_relaxed);
  status.view_updates = view_.updates();

  std::vector<PeerLoad> loads = view_.snapshot();
  std::vector<std::string> identities = member_identities(fed_config_.peer_ports);
  status.peers.reserve(identities.size());
  for (size_t i = 0; i < identities.size(); ++i) {
    net::FederationPeerStatus peer;
    peer.node = static_cast<uint32_t>(i);
    peer.identity = identities[i];
    peer.self = i == static_cast<size_t>(fed_config_.node_id);
    if (i < loads.size()) {
      peer.fresh = loads[i].fresh;
      peer.outstanding = loads[i].outstanding;
      peer.threshold = loads[i].threshold;
      peer.overloaded = loads[i].overloaded;
    }
    if (!peer.self) {
      // Channel health summed over every shard's channel to this peer.
      for (const auto& peering : peerings_) {
        const PeerChannel* channel = peering->channel(i);
        if (channel == nullptr) continue;
        peer.connected = peer.connected || channel->connected();
        peer.fetches += channel->fetches();
        peer.fetch_fails += channel->fetch_fails();
        peer.pushes += channel->pushes();
        peer.gossips += channel->gossips();
        peer.drops += channel->drops();
        peer.dials += channel->dials();
      }
    }
    status.peers.push_back(std::move(peer));
  }
  return status;
}

}  // namespace sbroker::fed
