#include "net/pipelined_backend.h"

#include <algorithm>

#include "core/cluster.h"
#include "http/mget.h"
#include "util/log.h"

namespace sbroker::net {

PipelinedBackend::PipelinedBackend(Reactor& reactor, uint16_t port)
    : PipelinedBackend(reactor, port, Config()) {}

PipelinedBackend::PipelinedBackend(Reactor& reactor, uint16_t port, Config config)
    : reactor_(reactor), port_(port), config_(config) {
  if (config_.max_connections == 0) config_.max_connections = 1;
  if (config_.pipeline_depth == 0) config_.pipeline_depth = 1;
}

size_t PipelinedBackend::in_flight() const {
  size_t total = 0;
  for (const auto& ch : channels_) total += ch->pipeline.size();
  return total;
}

core::ChannelStats PipelinedBackend::channel_stats() const {
  core::ChannelStats s = stats_;
  s.open_connections = channels_.size();
  return s;
}

void PipelinedBackend::invoke(const Call& call, Completion done) {
  invoke(call, nullptr, std::move(done));
}

void PipelinedBackend::invoke(const Call& call, const core::CancelTokenPtr& token,
                              Completion done) {
  ++stats_.calls;
  auto records = core::ClusterEngine::split_records(call.payload);
  http::Request request;
  if (records.size() == 1) {
    request.method = "GET";
    request.target = records[0];
  } else {
    request = http::make_mget_request(records);
  }
  request.headers.set("Host", "127.0.0.1");

  // The broker's remaining deadline bounds the exchange; without one the
  // channel's own response_timeout still caps a half-stalled connection.
  double timeout = call.timeout > 0.0 ? call.timeout : config_.response_timeout;
  if (timeout > 0.0) {
    request.headers.set(std::string(http::kDeadlineHeader),
                        std::to_string(static_cast<long>(timeout * 1000.0)));
  }

  // Backpressure: the broker's ConnectionPool enforces the same bound ahead
  // of us when configured via Config::from_pool; this is the wire-side
  // safety net (prefetch or a mismatched pool config can still overrun).
  if (in_flight() >= config_.max_connections * config_.pipeline_depth) {
    ++stats_.rejections;
    fail_later(std::move(done), "backend channel saturated");
    return;
  }

  auto exchange = std::make_shared<Exchange>();
  exchange->wire = request.serialize();
  exchange->parts_expected = records.size();
  exchange->done = std::move(done);
  if (timeout > 0.0) exchange->deadline_at = reactor_.now() + timeout;

  if (token) {
    std::weak_ptr<PipelinedBackend> weak_self = weak_from_this();
    std::weak_ptr<Exchange> weak_exchange = exchange;
    token->set_callback([weak_self, weak_exchange]() {
      auto self = weak_self.lock();
      auto ex = weak_exchange.lock();
      if (self && ex) self->abandon(ex, "exchange cancelled", /*is_timeout=*/false);
    });
    if (exchange->completed) return;  // token was already cancelled
  }

  double deadline_at = exchange->deadline_at;
  enqueue(std::move(exchange), /*allow_overflow=*/false);
  if (deadline_at > 0.0) arm_sweep(deadline_at);
  (void)call.needs_connection_setup;  // real connections open on demand
}

void PipelinedBackend::enqueue(ExchangePtr exchange, bool allow_overflow) {
  Channel* ch = pick_channel(allow_overflow);
  if (!ch) {
    complete(exchange, false,
             connect_error_.empty()
                 ? "backend channel saturated"
                 : "backend connect failed: " + connect_error_);
    return;
  }
  ++exchange->attempts;
  exchange->channel = ch->id;
  // Every request queued on a connection this cycle leaves in its one
  // cycle-end gather write; the call that armed that write counts it.
  if (ch->conn->queue(exchange->wire)) ++stats_.flushes;
  ++stats_.requests_written;
  ch->pipeline.push_back(std::move(exchange));
  stats_.peak_in_flight =
      std::max<uint64_t>(stats_.peak_in_flight, ch->pipeline.size());
}

PipelinedBackend::Channel* PipelinedBackend::pick_channel(bool allow_overflow) {
  Channel* best = nullptr;
  for (const auto& ch : channels_) {
    if (ch->conn->closed()) continue;
    if (!best || ch->pipeline.size() < best->pipeline.size()) best = ch.get();
  }
  // Mirror ConnectionPool::acquire: least-loaded existing connection wins;
  // a new one opens only when every open connection is at depth.
  if (best && best->pipeline.size() < config_.pipeline_depth) return best;
  if (channels_.size() < config_.max_connections) {
    if (Channel* fresh = open_channel()) return fresh;
  }
  return allow_overflow ? best : nullptr;
}

PipelinedBackend::Channel* PipelinedBackend::open_channel() {
  int fd;
  try {
    fd = connect_tcp(port_);
  } catch (const std::exception& e) {
    connect_error_ = e.what();
    return nullptr;
  }
  connect_error_.clear();
  auto ch = std::make_shared<Channel>();
  ch->id = next_channel_id_++;
  ch->conn = TcpConn::adopt(reactor_, fd);
  ++stats_.connections_opened;
  uint64_t id = ch->id;
  std::weak_ptr<PipelinedBackend> weak = weak_from_this();
  ch->conn->start(
      [weak, id](std::string_view bytes) {
        if (auto self = weak.lock()) self->on_data(id, bytes);
      },
      [weak, id]() {
        if (auto self = weak.lock()) self->handle_close(id);
      });
  channels_.push_back(ch);
  return ch.get();
}

std::shared_ptr<PipelinedBackend::Channel> PipelinedBackend::find_channel(
    uint64_t id) {
  for (const auto& ch : channels_) {
    if (ch->id == id) return ch;
  }
  return nullptr;
}

void PipelinedBackend::on_data(uint64_t channel_id, std::string_view bytes) {
  std::shared_ptr<Channel> ch = find_channel(channel_id);
  if (!ch) return;
  ch->parser.feed(bytes);
  while (true) {
    http::Response resp;
    auto result = ch->parser.next(resp);
    if (result == http::ParseResult::kNeedMore) return;
    if (result == http::ParseResult::kError) {
      // handle_close fails the head (parser in error) and re-issues the rest.
      SBROKER_WARN("pipelined-backend")
          << "malformed backend response (" << ch->parser.error_message()
          << "); closing";
      ch->conn->abort();
      return;
    }
    if (ch->pipeline.empty()) {
      SBROKER_WARN("pipelined-backend") << "unsolicited backend response; closing";
      ch->conn->abort();
      return;
    }
    ExchangePtr exchange = ch->pipeline.front();
    ch->pipeline.pop_front();
    if (exchange->parts_expected > 1) {
      auto parts = http::split_mget_response(resp);
      if (!parts || parts->size() != exchange->parts_expected) {
        complete(exchange, false, "bad MGET framing from backend");
      } else {
        std::vector<std::string> bodies;
        bodies.reserve(parts->size());
        for (auto& part : *parts) bodies.push_back(std::move(part.body));
        complete(exchange, true, core::ClusterEngine::join_payloads(bodies));
      }
    } else {
      complete(exchange, resp.status == 200, std::move(resp.body));
    }
    if (ch->conn->closed()) return;  // a completion may have torn things down
  }
}

void PipelinedBackend::handle_close(uint64_t channel_id) {
  auto it = std::find_if(
      channels_.begin(), channels_.end(),
      [channel_id](const std::shared_ptr<Channel>& c) { return c->id == channel_id; });
  if (it == channels_.end()) return;
  std::shared_ptr<Channel> ch = *it;
  channels_.erase(it);

  // The head exchange is mid-response iff the parser holds partial bytes (or
  // went sticky-error): re-issuing it could double-execute, so it fails.
  // Everything behind it was written (or queued) but not yet answered at
  // all — those re-issue on a surviving or fresh connection, depth cap
  // relaxed because their in-flight slots were already accounted for.
  bool malformed = ch->parser.in_error();
  bool partial = malformed || ch->parser.buffered() > 0;
  bool head = true;
  for (ExchangePtr& exchange : ch->pipeline) {
    bool was_head = head;
    head = false;
    if (exchange->completed) continue;
    if (was_head && partial) {
      complete(exchange, false,
               malformed ? "backend sent malformed response"
                         : "backend connection closed mid-response");
      continue;
    }
    if (exchange->attempts >= kMaxAttempts) {
      complete(exchange, false, "backend connection closed");
      continue;
    }
    ++stats_.retries;
    enqueue(std::move(exchange), /*allow_overflow=*/true);
  }
  ch->pipeline.clear();
}

void PipelinedBackend::complete(const ExchangePtr& exchange, bool ok,
                                std::string payload) {
  if (exchange->completed) return;
  exchange->completed = true;
  if (ok) {
    exchange->done(reactor_.now(), true, std::move(payload));
    return;
  }
  fail_later(std::move(exchange->done), std::move(payload));
}

void PipelinedBackend::fail_later(Completion done, std::string reason) {
  // Failures can surface re-entrantly inside invoke() (connect refused,
  // saturation); deferring them keeps the broker's dispatch loop from
  // recursing through an entire queue of doomed batches.
  reactor_.add_timer(0.0, [&reactor = reactor_, done = std::move(done),
                           reason = std::move(reason)]() {
    done(reactor.now(), false, reason);
  });
}

void PipelinedBackend::abandon(const ExchangePtr& exchange, std::string reason,
                               bool is_timeout) {
  if (exchange->completed) return;
  if (is_timeout) {
    ++stats_.timeouts;
  } else {
    ++stats_.cancels;
  }
  complete(exchange, false, std::move(reason));
  // FIFO matching past an abandoned exchange would mis-pair every later
  // response on this connection, so the connection dies with it; the close
  // path re-issues the other queued exchanges exactly like connection loss.
  if (auto ch = find_channel(exchange->channel); ch && !ch->conn->closed()) {
    ch->conn->abort();
  }
}

void PipelinedBackend::arm_sweep(double deadline_at) {
  if (sweep_armed_ && deadline_at >= next_sweep_at_ - 1e-9) return;
  if (sweep_armed_) reactor_.cancel_timer(sweep_timer_);
  sweep_armed_ = true;
  next_sweep_at_ = deadline_at;
  std::weak_ptr<PipelinedBackend> weak = weak_from_this();
  sweep_timer_ =
      reactor_.add_timer(std::max(0.0, deadline_at - reactor_.now()), [weak]() {
        if (auto self = weak.lock()) self->sweep_timeouts();
      });
}

void PipelinedBackend::sweep_timeouts() {
  sweep_armed_ = false;
  double now = reactor_.now();
  // Collect first: abandoning kills connections, which mutates channels_
  // (handle_close erases the channel and re-enqueues its survivors).
  std::vector<ExchangePtr> overdue;
  for (const auto& ch : channels_) {
    for (const auto& exchange : ch->pipeline) {
      if (exchange->completed || exchange->deadline_at <= 0.0) continue;
      if (exchange->deadline_at <= now + 1e-9) overdue.push_back(exchange);
    }
  }
  for (const ExchangePtr& exchange : overdue) {
    abandon(exchange, "backend response timeout", /*is_timeout=*/true);
  }
  // Re-arm for the earliest exchange still pending (survivors keep their
  // original deadlines across re-issues).
  double next = 0.0;
  for (const auto& ch : channels_) {
    for (const auto& exchange : ch->pipeline) {
      if (exchange->completed || exchange->deadline_at <= 0.0) continue;
      if (next == 0.0 || exchange->deadline_at < next) next = exchange->deadline_at;
    }
  }
  if (next > 0.0) arm_sweep(next);
}

}  // namespace sbroker::net
