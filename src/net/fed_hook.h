// Extension point the broker daemon offers the federation layer.
//
// net/ must not depend on src/fed/ (fed links net, not the other way
// around), so the daemon talks to its federation through this abstract
// hook: src/fed/'s per-shard ShardPeering implements it, and
// BrokerDaemon::set_federation() installs one per shard. Every method is
// invoked on the owning shard's reactor thread; implementations that share
// state across shards (the gossip view, the tier counters) synchronize
// internally.
//
// A daemon with no hook installed behaves exactly as before this layer
// existed — the federation path costs one null check per client-frame miss.
// Federation rides the frames of the daemon's main port only; UDP
// datagrams always fetch locally.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "http/wire.h"
#include "net/frame.h"

namespace sbroker::net {

class FederationHook {
 public:
  virtual ~FederationHook() = default;

  /// Outcome of a forwarded fetch, delivered back on the forwarding shard's
  /// reactor thread. `ok == false` means the owner could not answer (dead
  /// channel, exchange timeout): the daemon falls back to a local fetch
  /// with the request's remaining deadline budget, so a slow or dead peer
  /// can delay a request but never strand it.
  struct ForwardResult {
    bool ok = false;
    http::Fidelity fidelity = http::Fidelity::kFull;
    uint8_t flags = 0;
    std::string payload;
  };
  using ForwardDone = std::function<void(ForwardResult)>;

  /// Offers a cache-missed client request for forwarding to its ring owner.
  /// Returns false — without retaining `done` — when this node owns the
  /// key, forwarding is disabled, or the owner's channel is down (the
  /// caller then fetches locally). Returns true when the fetch was sent;
  /// `done` then fires exactly once, later, on this shard's reactor thread.
  virtual bool try_forward(const http::BrokerRequest& request, ForwardDone done) = 0;

  /// A full-or-cached answer this node just served for `key` (client
  /// requests and peer fetches alike): hotness accounting, and the
  /// replicate-to-all-peers decision on keys that cross the threshold.
  virtual void on_served(std::string_view key, std::string_view value,
                         http::Fidelity fidelity) = 0;

  /// A kPeerFetch frame was served by this node as owner (counting only;
  /// the daemon itself runs the broker submit and the reply).
  virtual void on_peer_fetch() = 0;

  /// A kPeerPush replication frame arrived (the daemon already inserted the
  /// pair into the shared cache).
  virtual void on_push(const frame::Push& push) = 0;

  /// A kGossip load report arrived from a peer.
  virtual void on_gossip(const frame::Gossip& gossip) = 0;
};

}  // namespace sbroker::net
