#include "net/broker_daemon.h"

#include <algorithm>
#include <cstdlib>

#include "http/parser.h"
#include "net/frame.h"
#include "util/log.h"

namespace sbroker::net {
namespace {

/// Request/response mapping for HTTP sniffed on the main port: clients GET
/// targets directly (X-QoS-Level and X-Deadline-Ms honored) and fidelity
/// maps onto status codes — 200 for full/cached/degraded, 503 for admission
/// busy, 504 Gateway Timeout for deadline sheds, 502 for backend errors.
http::BrokerRequest map_http_request(const http::Request& req, uint64_t id) {
  http::BrokerRequest breq;
  breq.request_id = id;
  breq.qos_level = static_cast<uint32_t>(req.qos_level(1));
  breq.payload = req.target;
  if (auto hdr = req.headers.get_view(http::kDeadlineHeader)) {
    breq.deadline_ms =
        static_cast<uint32_t>(std::strtoul(std::string(*hdr).c_str(), nullptr, 10));
  }
  return breq;
}

/// Copies a decoded request frame into the broker's request form, reusing
/// `out`'s payload capacity in steady state.
void fill_request(const frame::Request& freq, http::BrokerRequest& out) {
  out.request_id = freq.request_id;
  out.qos_level = freq.qos_level;
  out.txn_id = freq.txn_id;
  out.txn_step = freq.txn_step;
  out.deadline_ms = freq.deadline_ms;
  out.payload.assign(freq.query);
}

http::Response map_broker_reply(http::Fidelity fidelity, std::string_view payload) {
  int status = 200;
  switch (fidelity) {
    case http::Fidelity::kFull:
    case http::Fidelity::kCached:
    case http::Fidelity::kDegraded:
      status = 200;
      break;
    case http::Fidelity::kBusy:
      status = payload == core::kDeadlineExceeded ? 504 : 503;
      break;
    case http::Fidelity::kError:
      status = 502;
      break;
  }
  auto resp = http::make_response(status, std::string(payload));
  resp.headers.set(std::string(http::kFidelityHeader),
                   std::string(http::fidelity_name(fidelity)));
  return resp;
}

}  // namespace

struct BrokerDaemon::Conn {
  /// Wire protocol the first byte of the connection selected.
  enum class Mode { kSniff, kFrame, kHttp };

  std::shared_ptr<TcpConn> tcp;
  std::string inbox;            ///< frame reassembly buffer
  Mode mode = Mode::kSniff;
  http::RequestParser parser;   ///< kHttp only
  /// Reused across requests so the steady state re-uses their capacity
  /// instead of allocating per request.
  http::BrokerRequest req_scratch;
  std::string encode_scratch;
};

BrokerDaemon::BrokerDaemon(Reactor& reactor, std::string name,
                           BrokerDaemonConfig config)
    : reactor_(reactor),
      broker_(std::move(name), config.broker),
      tick_interval_(config.tick_interval),
      listener_(reactor, config.listen_port,
                [this](int fd) { adopt_client(fd); }, config.reuse_port) {
  if (config.enable_udp) {
    udp_ = std::make_unique<UdpSocket>(
        reactor_, config.udp_port,
        [this](std::string_view payload, const sockaddr_in& from) {
          on_datagram(payload, from);
        },
        config.reuse_port);
  }
  // Retries scheduled from inside a backend completion can move the next
  // due time earlier than the armed tick; the broker tells us to re-arm.
  broker_.set_wakeup([this]() { rearm_tick(); });
  rearm_tick();
}

void BrokerDaemon::adopt_client(int fd) {
  auto conn = std::make_shared<Conn>();
  conn->tcp = TcpConn::adopt(reactor_, fd);
  conn->tcp->start(
      [this, conn](std::string_view bytes) { on_client_bytes(conn, bytes); },
      [conn]() {});
}

void BrokerDaemon::on_client_bytes(const std::shared_ptr<Conn>& conn,
                                   std::string_view bytes) {
  if (conn->mode == Conn::Mode::kSniff && !bytes.empty()) {
    // One listen port, two protocols, distinguished by the first byte:
    // 0xB7 is the frame magic and an ASCII letter starts an HTTP/1.1
    // method. The byte values are disjoint by construction (frame_test
    // pins this).
    unsigned char first = static_cast<unsigned char>(bytes.front());
    if (first == frame::kMagic) {
      conn->mode = Conn::Mode::kFrame;
    } else if ((first >= 'A' && first <= 'Z') || (first >= 'a' && first <= 'z')) {
      conn->mode = Conn::Mode::kHttp;
    } else {
      SBROKER_WARN("broker-daemon") << "unknown protocol magic; closing";
      conn->tcp->abort();
      return;
    }
  }
  bool ok = true;
  switch (conn->mode) {
    case Conn::Mode::kSniff:
      return;  // zero-byte read; keep sniffing
    case Conn::Mode::kFrame:
      conn->inbox.append(bytes);
      ok = drain_frames(conn);
      break;
    case Conn::Mode::kHttp:
      conn->parser.feed(bytes);
      ok = drain_http(conn);
      break;
  }
  if (!ok) {
    SBROKER_WARN("broker-daemon") << "malformed request; closing";
    conn->tcp->abort();
    return;
  }
  // Submits may have registered deadlines earlier than the armed tick; pull
  // the timer forward so expiry fires on time.
  rearm_tick();
}

bool BrokerDaemon::drain_frames(const std::shared_ptr<Conn>& conn) {
  size_t off = 0;
  while (off < conn->inbox.size()) {
    std::string_view rest = std::string_view(conn->inbox).substr(off);
    uint8_t kind = frame::peek_kind(rest);
    if (kind == 0 && rest.size() < frame::kHeaderSize) break;  // header pending
    size_t consumed = 0;
    if (kind == frame::kKindRequest) {
      frame::Request freq;
      auto result = frame::parse_request(rest, freq, &consumed);
      if (result == frame::ParseResult::kNeedMore) break;
      if (result == frame::ParseResult::kError) return false;
      off += consumed;
      handle_client_frame(conn, freq);
    } else if (kind == frame::kKindPeerFetch && fed_ != nullptr) {
      frame::Request freq;
      auto result = frame::parse_peer_fetch(rest, freq, &consumed);
      if (result == frame::ParseResult::kNeedMore) break;
      if (result == frame::ParseResult::kError) return false;
      off += consumed;
      handle_peer_fetch(conn, freq);
    } else if (kind == frame::kKindPeerPush && fed_ != nullptr) {
      frame::Push push;
      auto result = frame::parse_push(rest, push, &consumed);
      if (result == frame::ParseResult::kNeedMore) break;
      if (result == frame::ParseResult::kError) return false;
      off += consumed;
      // Shared striped cache: one insert serves every shard's lookups.
      broker_.cache().put(push.key, std::string(push.value), reactor_.now());
      fed_->on_push(push);
    } else if (kind == frame::kKindGossip && fed_ != nullptr) {
      frame::Gossip gossip;
      auto result = frame::parse_gossip(rest, gossip, &consumed);
      if (result == frame::ParseResult::kNeedMore) break;
      if (result == frame::ParseResult::kError) return false;
      off += consumed;
      fed_->on_gossip(gossip);
    } else {
      // Reply kinds inbound on a serving connection, unknown kinds, and
      // peer kinds without a federation installed are protocol errors.
      return false;
    }
  }
  if (off > 0) conn->inbox.erase(0, off);
  return true;
}

template <typename Sink>
bool BrokerDaemon::serve(const http::BrokerRequest& req, const Sink& sink,
                          const std::shared_ptr<Conn>* forward_from) {
  // A cache-answerable request is served entirely out of the scratch arena
  // (value copy + reply view) through the non-owning ReplyViewFn. Only a
  // true miss pays for the owning std::function + context arena.
  scratch_.reset();
  if (broker_.try_submit_fast(reactor_.now(), req, scratch_,
                              [&](const core::ReplyView& r) { sink(req.payload, r); })) {
    return true;
  }
  // The fast path counted nothing on a miss, so exactly one node's broker
  // sees each request: the forwarding path hands it to the owner (which
  // counts it), the local path submits it here. Tier-wide issued+cache_hits
  // therefore equals client replies whichever route a request takes.
  if (forward_from != nullptr && fed_ != nullptr &&
      try_forward_miss(*forward_from, req)) {
    return false;
  }
  broker_.submit_miss(reactor_.now(), req,
                      [sink, key = req.payload](const http::BrokerReply& r) {
                        sink(key, core::ReplyView{r.request_id, r.fidelity, r.payload});
                      });
  return false;
}

auto BrokerDaemon::client_sink(const std::shared_ptr<Conn>& conn) {
  return [this, conn](std::string_view key, const core::ReplyView& r) {
    if (!conn->tcp->closed()) {
      queue_frame_reply(conn, r.request_id, r.fidelity, r.payload);
    }
    if (fed_ != nullptr) fed_->on_served(key, r.payload, r.fidelity);
  };
}

void BrokerDaemon::handle_client_frame(const std::shared_ptr<Conn>& conn,
                                       const frame::Request& freq) {
  wire_.frames_in += 1;
  fill_request(freq, conn->req_scratch);
  if (serve(conn->req_scratch, client_sink(conn), &conn)) wire_.fast_hits += 1;
}

bool BrokerDaemon::try_forward_miss(const std::shared_ptr<Conn>& conn,
                                    const http::BrokerRequest& req) {
  double submitted = reactor_.now();
  // The scratch request is reused per frame; the forward callback needs a
  // stable copy for the local-fallback resubmission.
  auto kept = std::make_shared<http::BrokerRequest>(req);
  return fed_->try_forward(
      req, [this, conn, kept, submitted](FederationHook::ForwardResult result) {
        if (result.ok) {
          // Relay the owner's answer verbatim — fidelity and flag bits
          // (cache-served, degraded, ...) describe how the owner produced it.
          if (!conn->tcp->closed()) {
            queue_reply_frame(conn, frame::kKindReply, kept->request_id,
                              result.fidelity, result.flags, result.payload);
          }
          return;
        }
        // Owner unreachable (dead channel / exchange timeout): serve locally
        // with whatever budget the client has left, clamped to >= 1ms so the
        // request sheds through the normal deadline path instead of hanging.
        if (kept->deadline_ms > 0) {
          double elapsed_ms = (reactor_.now() - submitted) * 1e3;
          double remaining = static_cast<double>(kept->deadline_ms) - elapsed_ms;
          kept->deadline_ms =
              remaining >= 1.0 ? static_cast<uint32_t>(remaining) : 1u;
        }
        serve(*kept, client_sink(conn));
        rearm_tick();  // the fallback may carry the earliest deadline
      });
}

void BrokerDaemon::handle_peer_fetch(const std::shared_ptr<Conn>& conn,
                                     const frame::Request& freq) {
  wire_.frames_in += 1;
  fed_->on_peer_fetch();
  fill_request(freq, conn->req_scratch);  // deadline_ms: the forwarder's budget
  // Serve as owner: cache, else local fetch. Never re-forwarded — the owner
  // answers a peer fetch itself by construction, so forwarding cannot loop.
  auto sink = [this, conn](std::string_view key, const core::ReplyView& r) {
    if (!conn->tcp->closed()) {
      queue_reply_frame(conn, frame::kKindPeerReply, r.request_id, r.fidelity,
                        frame::flags_for(r.fidelity), r.payload);
    }
    if (fed_ != nullptr) fed_->on_served(key, r.payload, r.fidelity);
  };
  if (serve(conn->req_scratch, sink)) wire_.fast_hits += 1;
}

bool BrokerDaemon::drain_http(const std::shared_ptr<Conn>& conn) {
  auto sink = [this, conn](std::string_view, const core::ReplyView& r) {
    if (!conn->tcp->closed()) queue_http_reply(conn, r.fidelity, r.payload);
  };
  while (true) {
    http::Request req;
    auto result = conn->parser.next(req);
    if (result == http::ParseResult::kNeedMore) return true;
    if (result == http::ParseResult::kError) return false;
    wire_.http_in += 1;
    serve(map_http_request(req, ++http_seq_), sink);
  }
}

void BrokerDaemon::queue_frame_reply(const std::shared_ptr<Conn>& conn,
                                     uint64_t request_id, http::Fidelity fidelity,
                                     std::string_view payload) {
  queue_reply_frame(conn, frame::kKindReply, request_id, fidelity,
                    frame::flags_for(fidelity), payload);
}

void BrokerDaemon::queue_reply_frame(const std::shared_ptr<Conn>& conn,
                                     uint8_t kind, uint64_t request_id,
                                     http::Fidelity fidelity, uint8_t flags,
                                     std::string_view payload) {
  conn->encode_scratch.clear();
  if (kind == frame::kKindPeerReply) {
    frame::encode_peer_reply(request_id, fidelity, flags, payload,
                             conn->encode_scratch);
  } else {
    frame::encode_reply(request_id, fidelity, flags, payload,
                        conn->encode_scratch);
  }
  wire_.flushed_responses += 1;
  if (conn->tcp->queue(conn->encode_scratch)) wire_.flushes += 1;
}

void BrokerDaemon::queue_http_reply(const std::shared_ptr<Conn>& conn,
                                    http::Fidelity fidelity,
                                    std::string_view payload) {
  auto resp = map_broker_reply(fidelity, payload);
  conn->encode_scratch.clear();
  resp.serialize_into(conn->encode_scratch);
  wire_.flushed_responses += 1;
  if (conn->tcp->queue(conn->encode_scratch)) wire_.flushes += 1;
}

void BrokerDaemon::on_datagram(std::string_view payload, const sockaddr_in& from) {
  frame::Request freq;
  size_t consumed = 0;
  if (frame::parse_request(payload, freq, &consumed) != frame::ParseResult::kFrame ||
      consumed != payload.size()) {
    SBROKER_WARN("broker-daemon") << "malformed datagram dropped";
    return;
  }
  fill_request(freq, udp_request_);
  serve(udp_request_, [this, from](std::string_view, const core::ReplyView& r) {
    if (!udp_) return;
    udp_reply_.clear();
    frame::encode_reply(r.request_id, r.fidelity, frame::flags_for(r.fidelity),
                        r.payload, udp_reply_);
    udp_->send_to(from, udp_reply_);
  });
  rearm_tick();
}

BrokerDaemon::~BrokerDaemon() {
  stopping_ = true;
  reactor_.cancel_timer(tick_timer_);
}

void BrokerDaemon::add_backend(std::shared_ptr<core::Backend> backend, double weight) {
  broker_.add_backend(std::move(backend), weight);
}

void BrokerDaemon::poke() {
  if (stopping_) return;
  broker_.tick(reactor_.now());
  rearm_tick();
}

void BrokerDaemon::rearm_tick() {
  if (stopping_) return;
  double now = reactor_.now();
  double due = now + tick_interval_;
  if (auto next = broker_.next_deadline(); next && *next < due) {
    due = std::max(now, *next);
  }
  // Keep an already-armed timer that is early enough; re-arming on every
  // submit would churn the timer queue for no behavioural difference.
  if (tick_armed_ && next_tick_at_ <= due + 1e-9) return;
  if (tick_armed_) reactor_.cancel_timer(tick_timer_);
  tick_armed_ = true;
  next_tick_at_ = due;
  tick_timer_ = reactor_.add_timer(due - now, [this]() {
    if (stopping_) return;
    tick_armed_ = false;
    broker_.tick(reactor_.now());
    rearm_tick();
  });
}

}  // namespace sbroker::net
