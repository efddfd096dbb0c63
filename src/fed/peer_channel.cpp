#include "fed/peer_channel.h"

#include <utility>
#include <vector>

#include "util/log.h"

namespace sbroker::fed {
namespace {

/// Correlation ids live in their own high range: at the owner daemon the
/// peer-fetch id becomes the broker request id, which must not collide with
/// ids chosen by that daemon's direct clients (the broker keys its request
/// contexts by id). One process-wide counter keeps the ids unique across
/// every (shard, peer) channel in this member; the per-channel node salt
/// (bit 63 + the member index in bits 48..62) keeps them unique across
/// *members*, whose processes each run their own copy of this counter.
std::atomic<uint64_t> g_correlation{1};
constexpr uint64_t kCorrelationMask = (1ull << 48) - 1;

uint64_t correlation_salt(uint32_t self_node) {
  return (1ull << 63) | (static_cast<uint64_t>(self_node & 0x7fff) << 48);
}

}  // namespace

PeerChannel::PeerChannel(net::Reactor& reactor, uint16_t port,
                         double dial_backoff, uint32_t self_node)
    : reactor_(reactor),
      port_(port),
      dial_backoff_(dial_backoff),
      id_salt_(correlation_salt(self_node)) {}

PeerChannel::~PeerChannel() {
  destroying_ = true;
  for (auto& [id, pending] : pending_) {
    if (pending.timer != 0) reactor_.cancel_timer(pending.timer);
  }
  pending_.clear();
  if (conn_ && !conn_->closed()) conn_->abort();
}

bool PeerChannel::usable() const {
  if (conn_ && !conn_->closed()) return true;
  return reactor_.now() >= next_dial_at_;
}

bool PeerChannel::ensure_connected() {
  if (conn_ && !conn_->closed()) return true;
  if (reactor_.now() < next_dial_at_) return false;
  int fd;
  try {
    fd = net::connect_tcp(port_);
  } catch (const std::exception&) {
    next_dial_at_ = reactor_.now() + dial_backoff_;
    return false;
  }
  dials_.fetch_add(1, std::memory_order_relaxed);
  inbox_.clear();
  conn_ = net::TcpConn::adopt(reactor_, fd);
  conn_->start([this](std::string_view bytes) { on_bytes(bytes); },
               [this]() { on_close(); });
  connected_.store(true, std::memory_order_relaxed);
  return true;
}

bool PeerChannel::fetch(net::frame::Request request, double timeout,
                        FetchDone done) {
  if (!ensure_connected()) {
    drops_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  uint64_t id =
      id_salt_ |
      (g_correlation.fetch_add(1, std::memory_order_relaxed) & kCorrelationMask);
  request.request_id = id;
  encode_scratch_.clear();
  net::frame::encode_peer_fetch(request, encode_scratch_);

  Pending pending;
  pending.done = std::move(done);
  if (timeout > 0.0) {
    pending.timer = reactor_.add_timer(timeout, [this, id]() {
      auto it = pending_.find(id);
      if (it == pending_.end()) return;
      it->second.timer = 0;  // fired, nothing to cancel
      finish(id, false, http::Fidelity::kError, 0, "peer fetch timeout");
    });
  }
  pending_.emplace(id, std::move(pending));
  fetches_.fetch_add(1, std::memory_order_relaxed);
  conn_->send(encode_scratch_);
  return true;
}

bool PeerChannel::send_push(std::string_view key, std::string_view value) {
  if (!ensure_connected()) {
    drops_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  encode_scratch_.clear();
  net::frame::encode_push(key, value, encode_scratch_);
  pushes_.fetch_add(1, std::memory_order_relaxed);
  conn_->send(encode_scratch_);
  return true;
}

bool PeerChannel::send_gossip(const net::frame::Gossip& gossip) {
  if (!ensure_connected()) {
    drops_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  encode_scratch_.clear();
  net::frame::encode_gossip(gossip, encode_scratch_);
  gossips_.fetch_add(1, std::memory_order_relaxed);
  conn_->send(encode_scratch_);
  return true;
}

void PeerChannel::on_bytes(std::string_view bytes) {
  inbox_.append(bytes);
  size_t off = 0;
  while (off < inbox_.size()) {
    net::frame::Reply reply;
    size_t consumed = 0;
    auto result = net::frame::parse_peer_reply(
        std::string_view(inbox_).substr(off), reply, &consumed);
    if (result == net::frame::ParseResult::kNeedMore) break;
    if (result == net::frame::ParseResult::kError) {
      SBROKER_WARN("fed-channel") << "malformed peer reply; closing";
      conn_->abort();  // on_close fails everything pending
      return;
    }
    // A reply for an id we no longer hold timed out already; drop it.
    finish(reply.request_id, true, reply.fidelity, reply.flags,
           std::string(reply.payload));
    off += consumed;
  }
  if (off > 0) inbox_.erase(0, off);
}

void PeerChannel::finish(uint64_t id, bool ok, http::Fidelity fidelity,
                         uint8_t flags, std::string payload) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pending pending = std::move(it->second);
  pending_.erase(it);
  if (pending.timer != 0) reactor_.cancel_timer(pending.timer);
  if (!ok) fetch_fails_.fetch_add(1, std::memory_order_relaxed);
  if (!destroying_) pending.done(ok, fidelity, flags, std::move(payload));
}

void PeerChannel::fail_pending(const char* reason) {
  // finish() mutates pending_; take the ids first.
  std::vector<uint64_t> ids;
  ids.reserve(pending_.size());
  for (const auto& [id, pending] : pending_) ids.push_back(id);
  for (uint64_t id : ids) {
    finish(id, false, http::Fidelity::kError, 0, reason);
  }
}

void PeerChannel::on_close() {
  connected_.store(false, std::memory_order_relaxed);
  conn_.reset();
  next_dial_at_ = reactor_.now() + dial_backoff_;
  if (!destroying_) fail_pending("peer channel closed");
}

}  // namespace sbroker::fed
