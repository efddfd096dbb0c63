// Real-socket service broker daemon.
//
// Runs the identical core::ServiceBroker logic that the simulation uses,
// but over live TCP: web application processes connect and exchange
// binary frames (net/frame.h), and the broker forwards to real HTTP
// backend servers. This is the deployment shape of the paper's distributed
// model (Figure 5) — admission, clustering, caching and differentiation all
// happen in this process, in front of QoS-unaware backends. Every ingress
// (frames, peer fetches, HTTP sniffed on the main port, UDP) reaches the
// broker through one helper, serve(): the cache fast path first, the miss
// path after it, exactly as the simulator's ServiceBroker::submit().
//
// Everything runs on one Reactor thread; a periodic timer drives
// broker.tick() for cluster-deadline flushes and prefetch.
#pragma once

#include <memory>

#include "core/backend.h"
#include "core/broker.h"
#include "net/fed_hook.h"
#include "net/tcp.h"
#include "net/udp.h"

namespace sbroker::net {

struct BrokerDaemonConfig {
  core::BrokerConfig broker;
  uint16_t listen_port = 0;      ///< TCP port; 0 = ephemeral
  bool enable_udp = true;        ///< the paper's "lightweight UDP" channel
  uint16_t udp_port = 0;         ///< 0 = ephemeral
  double tick_interval = 0.02;   ///< max seconds between housekeeping ticks
  /// SO_REUSEPORT on both listeners, so several daemons (the shards of a
  /// ShardedBrokerDaemon) can accept on one shared port.
  bool reuse_port = false;
};

/// Ingress/egress accounting for the daemon's main listen port. The two
/// `_in` counters classify requests by the protocol the first-byte sniff
/// picked; `flushes`/`flushed_responses` measure reactor-cycle write
/// coalescing (flushed_responses > flushes means batching happened).
struct WireStats {
  uint64_t frames_in = 0;    ///< binary-frame requests (net/frame.h)
  uint64_t http_in = 0;      ///< sniffed HTTP/1.1 requests on the main port
  /// Frame requests (client and peer fetch) the cache answered. HTTP and
  /// UDP hits take the same path but are not counted here, so
  /// fast_hits / frames_in stays a frame-only share.
  uint64_t fast_hits = 0;
  uint64_t flushes = 0;      ///< cycle-end gather writes on frame/http conns
  uint64_t flushed_responses = 0;  ///< responses those writes carried

  void merge(const WireStats& o) {
    frames_in += o.frames_in;
    http_in += o.http_in;
    fast_hits += o.fast_hits;
    flushes += o.flushes;
    flushed_responses += o.flushed_responses;
  }
};

class BrokerDaemon {
 public:
  BrokerDaemon(Reactor& reactor, std::string name, BrokerDaemonConfig config);
  ~BrokerDaemon();
  BrokerDaemon(const BrokerDaemon&) = delete;
  BrokerDaemon& operator=(const BrokerDaemon&) = delete;

  void add_backend(std::shared_ptr<core::Backend> backend, double weight = 1.0);

  /// Adopts an already-accepted client socket (non-blocking fd) as a
  /// wire-protocol connection, exactly as if this daemon's own listener had
  /// accepted it. Must be called on this daemon's reactor thread; the
  /// sharded daemon's acceptor fallback posts fds here.
  void adopt_client(int fd);

  /// Runs a housekeeping tick now and re-arms the tick timer. Must be called
  /// on this daemon's reactor thread; the sharded daemon posts it when a
  /// single-flight resolution on another shard has waiters parked here.
  void poke();

  uint16_t port() const { return listener_.port(); }
  /// UDP datagram port; 0 when UDP is disabled.
  uint16_t udp_port() const { return udp_ ? udp_->port() : 0; }
  core::ServiceBroker& broker() { return broker_; }
  const core::ServiceBroker& broker() const { return broker_; }
  /// Main-port protocol mix and write-coalescing counters. Same threading
  /// contract as broker(): touch only from this daemon's reactor thread (or
  /// while stopped).
  WireStats wire_stats() const { return wire_; }

  /// Installs this shard's federation endpoint (see net/fed_hook.h). Call
  /// before traffic flows; the hook must outlive the daemon's traffic. With
  /// a hook installed the frame path gains the federation behaviours:
  /// cache-missed client frames are offered to try_forward() before
  /// fetching locally, and the peer kinds (kPeerFetch / kPeerPush /
  /// kGossip) are accepted on the same sniffed port. Without one, peer
  /// frames are a protocol error and the daemon behaves exactly as before.
  /// Federation applies to frames on the main port only — the HTTP and UDP
  /// ingresses always fetch locally.
  void set_federation(FederationHook* federation) { fed_ = federation; }

 private:
  struct Conn;
  /// (Re-)arms the tick timer for min(now + tick_interval, broker
  /// next_deadline) so deadline expiries fire when due, not a full tick
  /// late. Cheap no-op when the armed timer is already early enough.
  void rearm_tick();
  void on_client_bytes(const std::shared_ptr<Conn>& conn, std::string_view bytes);
  bool drain_frames(const std::shared_ptr<Conn>& conn);
  bool drain_http(const std::shared_ptr<Conn>& conn);
  /// The one route from every ingress (client frame, peer fetch, forward
  /// fallback, sniffed HTTP, UDP) to the broker. The cache fast path
  /// answers through `sink` with the payload in scratch_, so a hit costs no
  /// std::function and no allocation in the broker. A miss is offered to
  /// the federation first when `forward_from` is set (client frames), then
  /// takes the broker's miss path with `sink` wrapped in the owning ReplyFn.
  /// `sink(key, reply)` gets the request's cache key and its one answer.
  /// True when the cache answered.
  template <typename Sink>
  bool serve(const http::BrokerRequest& req, const Sink& sink,
             const std::shared_ptr<Conn>* forward_from = nullptr);
  /// Sink for a client frame connection: queues the reply frame and reports
  /// the answer to the federation.
  auto client_sink(const std::shared_ptr<Conn>& conn);
  /// One decoded client request frame: cache fast path, then federation
  /// forward (hook installed and a live peer owns the key), then local fetch.
  void handle_client_frame(const std::shared_ptr<Conn>& conn,
                           const frame::Request& freq);
  /// One decoded kPeerFetch: serve as owner (cache or local fetch; never
  /// re-forwarded, so forwarding chains cannot loop) and answer kPeerReply.
  void handle_peer_fetch(const std::shared_ptr<Conn>& conn,
                         const frame::Request& freq);
  /// Offers a cache-missed client frame to the federation. True when the
  /// fetch went to the owner (the forward callback owns the reply or the
  /// local fallback from here on).
  bool try_forward_miss(const std::shared_ptr<Conn>& conn,
                        const http::BrokerRequest& req);
  /// Queues one encoded reply on the connection; it leaves in the
  /// connection's cycle-end gather write (one per reactor wakeup, however
  /// many replies landed in it).
  void queue_frame_reply(const std::shared_ptr<Conn>& conn, uint64_t request_id,
                         http::Fidelity fidelity, std::string_view payload);
  /// queue_frame_reply with explicit flags (relaying an owner's reply keeps
  /// the owner's flag bits) and a selectable kind (kKindReply for clients,
  /// kKindPeerReply for peer fetches).
  void queue_reply_frame(const std::shared_ptr<Conn>& conn, uint8_t kind,
                         uint64_t request_id, http::Fidelity fidelity,
                         uint8_t flags, std::string_view payload);
  void queue_http_reply(const std::shared_ptr<Conn>& conn,
                        http::Fidelity fidelity, std::string_view payload);
  /// One datagram must hold exactly one request frame; anything else
  /// (truncated, trailing bytes, another kind) is dropped without a reply.
  void on_datagram(std::string_view payload, const sockaddr_in& from);

  Reactor& reactor_;
  core::ServiceBroker broker_;
  double tick_interval_;
  Reactor::TimerId tick_timer_ = 0;
  bool tick_armed_ = false;
  double next_tick_at_ = 0.0;
  bool stopping_ = false;
  TcpListener listener_;
  std::unique_ptr<UdpSocket> udp_;
  uint64_t http_seq_ = 0;  ///< synthesizes request ids for HTTP clients
  WireStats wire_;
  /// Scratch arena for the allocation-free cache fast path; reset per request.
  core::Arena scratch_;
  /// Reused across datagrams, like a connection's request/encode scratch.
  http::BrokerRequest udp_request_;
  std::string udp_reply_;
  /// This shard's federation endpoint; null = single-node behaviour.
  FederationHook* fed_ = nullptr;
};

}  // namespace sbroker::net
