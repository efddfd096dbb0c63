// Minimal HTTP server on the reactor.
//
// Plays the backend Web server in the real-socket testbed. Handlers may
// answer synchronously or hold the responder and answer later (from a
// reactor timer), which is how the test backends simulate bounded CGI
// processing time. Responses leave each connection in request order
// (HTTP/1.1 pipelining), however the handlers order their answers, and all
// released in one reactor cycle leave in one gather write; a request never
// answered holds back every later response on its connection, as a stalled
// serial server would. Supports MGET natively:
// when the handler registry is used, an MGET request fans out to the
// per-target handlers and the parts are recombined (http/mget.h framing).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "http/message.h"
#include "http/parser.h"
#include "net/tcp.h"

namespace sbroker::net {

class HttpServer {
 public:
  /// Call exactly once with the response for the request.
  using Responder = std::function<void(http::Response)>;
  /// May respond re-entrantly or later.
  using Handler = std::function<void(const http::Request&, Responder)>;

  /// `fallback` handles every request that no registered route matches.
  HttpServer(Reactor& reactor, uint16_t port, Handler fallback);

  /// Exact-match route on the request target.
  void route(std::string target, Handler handler);

  uint16_t port() const { return listener_.port(); }
  uint64_t requests_served() const { return *requests_served_; }

 private:
  struct Conn;
  void handle(const http::Request& req, Responder respond);

  Reactor& reactor_;
  Handler fallback_;
  std::unordered_map<std::string, Handler> routes_;
  std::shared_ptr<uint64_t> requests_served_ = std::make_shared<uint64_t>(0);
  TcpListener listener_;
};

}  // namespace sbroker::net
