// Persistent broker-to-broker channel, one per (shard, peer).
//
// Speaks the binary frame protocol against the peer daemon's ordinary
// frame port: kPeerFetch out / kPeerReply in for miss forwarding, plus
// fire-and-forget kPeerPush (hot-key replication) and kGossip (load
// reports). Unlike the HTTP backend channel, replies are matched by
// correlation id, not arrival order, so one connection carries any number
// of concurrent exchanges with no head-of-line coupling between them.
// Frames sent during one reactor cycle leave together in the connection's
// one cycle-end gather write (TcpConn::queue).
//
// Failure model: a dead peer surfaces as a connection close (RST on a
// killed process) or an exchange timeout. Either way every pending fetch
// fails immediately — the daemon falls back to a local fetch within the
// request's remaining budget — and the channel enters a dial backoff so a
// down peer costs one failed connect per backoff window, not one per
// request. Fire-and-forget sends while down are dropped and counted.
//
// Threading: everything except the atomic status getters must run on the
// owning shard's reactor thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "http/wire.h"
#include "net/frame.h"
#include "net/reactor.h"
#include "net/tcp.h"

namespace sbroker::fed {

class PeerChannel {
 public:
  /// (ok, fidelity, owner's reply flags, payload). Fires exactly once, on
  /// the owning reactor thread.
  using FetchDone =
      std::function<void(bool, http::Fidelity, uint8_t, std::string)>;

  /// `self_node` is the local member's federation index: it is folded into
  /// every correlation id so ids stay unique tier-wide even though each
  /// member process draws from its own counter (two forwarders colliding on
  /// an id at the same owner would collide in that broker's context table).
  PeerChannel(net::Reactor& reactor, uint16_t port, double dial_backoff,
              uint32_t self_node);
  ~PeerChannel();
  PeerChannel(const PeerChannel&) = delete;
  PeerChannel& operator=(const PeerChannel&) = delete;

  /// Sends `request` as a kPeerFetch under a fresh correlation id (which
  /// replaces request.request_id) and registers `done` with a
  /// `timeout`-seconds exchange deadline. Returns false — without retaining
  /// `done` — when the channel is in dial backoff.
  bool fetch(net::frame::Request request, double timeout, FetchDone done);

  /// Fire-and-forget sends; false (dropped, counted) while in backoff.
  bool send_push(std::string_view key, std::string_view value);
  bool send_gossip(const net::frame::Gossip& gossip);

  /// Channel is not in dial backoff: connected, or allowed to (re)dial now.
  bool usable() const;

  // Status getters, safe from any thread (admin plane).
  bool connected() const { return connected_.load(std::memory_order_relaxed); }
  uint64_t fetches() const { return fetches_.load(std::memory_order_relaxed); }
  uint64_t fetch_fails() const { return fetch_fails_.load(std::memory_order_relaxed); }
  uint64_t pushes() const { return pushes_.load(std::memory_order_relaxed); }
  uint64_t gossips() const { return gossips_.load(std::memory_order_relaxed); }
  uint64_t drops() const { return drops_.load(std::memory_order_relaxed); }
  uint64_t dials() const { return dials_.load(std::memory_order_relaxed); }
  uint16_t port() const { return port_; }

 private:
  struct Pending {
    FetchDone done;
    net::Reactor::TimerId timer = 0;
  };

  /// Dials if not connected; false while in backoff or on immediate
  /// connect failure.
  bool ensure_connected();
  void on_bytes(std::string_view bytes);
  void on_close();
  void fail_pending(const char* reason);
  void finish(uint64_t id, bool ok, http::Fidelity fidelity, uint8_t flags,
              std::string payload);

  net::Reactor& reactor_;
  uint16_t port_;
  double dial_backoff_;
  uint64_t id_salt_;  ///< high bits of every correlation id (marker + node)
  double next_dial_at_ = 0.0;  ///< reactor time before which dialing is off
  std::shared_ptr<net::TcpConn> conn_;
  std::string inbox_;
  std::string encode_scratch_;
  std::unordered_map<uint64_t, Pending> pending_;
  bool destroying_ = false;

  std::atomic<bool> connected_{false};
  std::atomic<uint64_t> fetches_{0};      ///< kPeerFetch frames sent
  std::atomic<uint64_t> fetch_fails_{0};  ///< exchanges failed (close/timeout)
  std::atomic<uint64_t> pushes_{0};       ///< kPeerPush frames sent
  std::atomic<uint64_t> gossips_{0};      ///< kGossip frames sent
  std::atomic<uint64_t> drops_{0};        ///< sends refused while down
  std::atomic<uint64_t> dials_{0};        ///< connection attempts
};

}  // namespace sbroker::fed
