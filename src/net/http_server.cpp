#include "net/http_server.h"

#include <map>
#include <vector>

#include "http/mget.h"
#include "util/log.h"

namespace sbroker::net {

struct HttpServer::Conn {
  std::shared_ptr<TcpConn> tcp;
  http::RequestParser parser;
  uint64_t next_seq = 0;  ///< sequence number of the next parsed request
  uint64_t send_seq = 0;  ///< sequence number whose response goes out next
  /// Responses answered ahead of an earlier request, held until it answers.
  std::map<uint64_t, std::string> held;

  /// HTTP/1.1 pipelining: responses leave in request order, whatever order
  /// the handlers answer in. Everything released in one reactor cycle,
  /// held responses included, leaves in the connection's one cycle-end
  /// gather write.
  void deliver(uint64_t seq, std::string bytes) {
    if (tcp->closed()) return;
    if (seq != send_seq) {
      held.emplace(seq, std::move(bytes));
      return;
    }
    tcp->queue(std::move(bytes));
    ++send_seq;
    for (auto it = held.begin(); it != held.end() && it->first == send_seq;
         it = held.erase(it)) {
      tcp->queue(std::move(it->second));
      ++send_seq;
    }
  }
};

HttpServer::HttpServer(Reactor& reactor, uint16_t port, Handler fallback)
    : reactor_(reactor),
      fallback_(std::move(fallback)),
      listener_(reactor, port, [this](int fd) {
        auto conn = std::make_shared<Conn>();
        conn->tcp = TcpConn::adopt(reactor_, fd);
        conn->tcp->start(
            [this, conn](std::string_view bytes) {
              conn->parser.feed(bytes);
              http::Request req;
              while (true) {
                auto result = conn->parser.next(req);
                if (result == http::ParseResult::kNeedMore) return;
                if (result == http::ParseResult::kError) {
                  conn->tcp->send(http::make_response(400, "bad request").serialize());
                  conn->tcp->shutdown();
                  return;
                }
                ++*requests_served_;
                handle(req, [conn, seq = conn->next_seq++](http::Response resp) {
                  conn->deliver(seq, resp.serialize());
                });
              }
            },
            [conn]() {
              // Connection closed; `conn` dies with this closure and the
              // last outstanding responder.
            });
      }) {}

void HttpServer::route(std::string target, Handler handler) {
  routes_[std::move(target)] = std::move(handler);
}

void HttpServer::handle(const http::Request& req, Responder respond) {
  // MGET fan-out: answer each target through the normal dispatch and stitch
  // the parts together in order once all have arrived.
  if (auto targets = http::parse_mget_targets(req)) {
    auto parts = std::make_shared<std::vector<http::Response>>(targets->size());
    auto remaining = std::make_shared<size_t>(targets->size());
    auto respond_shared = std::make_shared<Responder>(std::move(respond));
    for (size_t i = 0; i < targets->size(); ++i) {
      http::Request sub;
      sub.method = "GET";
      sub.target = (*targets)[i];
      sub.version = req.version;
      handle(sub, [parts, remaining, respond_shared, i](http::Response resp) {
        (*parts)[i] = std::move(resp);
        if (--*remaining == 0) {
          (*respond_shared)(http::make_mget_response(*parts));
        }
      });
    }
    return;
  }

  auto it = routes_.find(req.target);
  if (it != routes_.end()) {
    it->second(req, std::move(respond));
    return;
  }
  fallback_(req, std::move(respond));
}

}  // namespace sbroker::net
