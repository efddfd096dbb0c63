// End-to-end over real sockets: blocking FrameClient -> BrokerDaemon
// (binary frames, TCP) -> PipelinedBackend -> mini HTTP backend server.
#include "net/broker_daemon.h"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <future>
#include <thread>

#include "http/parser.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/pipelined_backend.h"

namespace sbroker::net {
namespace {

class BrokerDaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Backend HTTP server: /page-N answers with a body naming the target.
    backend_server_ = std::make_unique<HttpServer>(
        reactor_, 0, [](const http::Request& req, HttpServer::Responder respond) {
          respond(http::make_response(200, "content of " + req.target));
        });

    BrokerDaemonConfig cfg;
    cfg.broker.rules = core::QosRules{3, 20.0};
    cfg.broker.enable_cache = true;
    cfg.broker.cache_ttl = 30.0;
    cfg.tick_interval = 0.005;
    daemon_ = std::make_unique<BrokerDaemon>(reactor_, "web-broker", cfg);
    daemon_->add_backend(
        std::make_shared<PipelinedBackend>(reactor_, backend_server_->port()));

    thread_ = std::thread([this] { reactor_.run(); });
  }

  void TearDown() override {
    reactor_.stop();
    thread_.join();
  }

  /// The broker's counters over all classes, read on the reactor thread
  /// that owns them.
  core::BrokerMetrics::ClassCounters totals() {
    std::promise<core::BrokerMetrics::ClassCounters> result;
    reactor_.post([&]() { result.set_value(daemon_->broker().metrics().total()); });
    return result.get_future().get();
  }

  Reactor reactor_;
  std::unique_ptr<HttpServer> backend_server_;
  std::unique_ptr<BrokerDaemon> daemon_;
  std::thread thread_;
};

TEST_F(BrokerDaemonTest, FullFidelityRoundTrip) {
  FrameClient client(daemon_->port());
  auto reply = client.call(1, "/page-1", 3);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->request_id, 1u);
  EXPECT_EQ(reply->fidelity, http::Fidelity::kFull);
  EXPECT_EQ(reply->payload, "content of /page-1");
}

TEST_F(BrokerDaemonTest, SecondIdenticalRequestServedFromCache) {
  FrameClient client(daemon_->port());
  auto first = client.call(1, "/cached-page", 3);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->fidelity, http::Fidelity::kFull);
  auto second = client.call(2, "/cached-page", 3);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->fidelity, http::Fidelity::kCached);
  EXPECT_EQ(second->payload, "content of /cached-page");
}

TEST_F(BrokerDaemonTest, SequentialRequestsOnOneConnection) {
  FrameClient client(daemon_->port());
  for (uint64_t i = 0; i < 10; ++i) {
    auto reply = client.call(i, "/p" + std::to_string(i), 2);
    ASSERT_TRUE(reply.has_value()) << i;
    EXPECT_EQ(reply->request_id, i);
    EXPECT_EQ(reply->payload, "content of /p" + std::to_string(i));
  }
}

TEST_F(BrokerDaemonTest, ConcurrentClients) {
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&, c] {
      FrameClient client(daemon_->port());
      for (int i = 0; i < 5; ++i) {
        uint64_t id = static_cast<uint64_t>(c) * 100 + static_cast<uint64_t>(i);
        auto reply = client.call(id, "/t" + std::to_string(id), 2);
        if (reply && reply->request_id == id) ++ok;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok, 20);
}

TEST_F(BrokerDaemonTest, UnreachableBackendYieldsError) {
  Reactor reactor2;
  BrokerDaemonConfig cfg;
  cfg.broker.enable_cache = false;
  BrokerDaemon lonely(reactor2, "lonely", cfg);
  lonely.add_backend(std::make_shared<PipelinedBackend>(reactor2, 1));  // port 1: closed
  std::thread t([&] { reactor2.run(); });
  FrameClient client(lonely.port());
  auto reply = client.call(1, "/x", 3);
  reactor2.stop();
  t.join();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->fidelity, http::Fidelity::kError);
}

/// Sends `bytes` on a fresh connection and reports whether the daemon
/// closed it without replying.
bool closed_without_reply(uint16_t port, std::string_view bytes) {
  int fd = connect_tcp(port);
  if (fd < 0) return false;
  bool closed = false;
  if (::send(fd, bytes.data(), bytes.size(), 0) > 0) {
    // connect_tcp hands back a non-blocking fd; wait for the peer close.
    pollfd pfd{fd, POLLIN, 0};
    char buf[64];
    closed = ::poll(&pfd, 1, 2000) == 1 && ::recv(fd, buf, sizeof(buf), 0) == 0;
  }
  ::close(fd);
  return closed;
}

TEST_F(BrokerDaemonTest, MalformedBytesCloseConnection) {
  FrameClient good(daemon_->port());
  // A first byte that is neither the frame magic nor an ASCII letter fails
  // the protocol sniff; the daemon closes the connection without replying.
  EXPECT_TRUE(closed_without_reply(daemon_->port(), "\x01\x02garbage"));
  // A client of the retired legacy codec opens with its magic 'S' 'B' 'R'
  // 'K', an ASCII letter, so it is sniffed as HTTP; once a line ends, the
  // request line is malformed and the connection is closed without a reply.
  const char legacy[] = "\x53\x42\x52\x4b\x01\x01\x07\x00\r\n";
  EXPECT_TRUE(closed_without_reply(daemon_->port(),
                                   std::string_view(legacy, sizeof(legacy) - 1)));
  // The daemon must still serve well-formed clients afterwards.
  auto reply = good.call(5, "/still-alive", 3);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->payload, "content of /still-alive");
}

TEST_F(BrokerDaemonTest, HttpHeadWithoutLineEndIsClosed) {
  // An HTTP client that never ends its request line must not grow the
  // connection's buffer without bound: once the head passes
  // http::kMaxHeadBytes the daemon closes the connection without replying.
  int fd = connect_tcp(daemon_->port());
  ASSERT_GE(fd, 0);
  std::string bytes = "GET /" + std::string(16 * 1024, 'a');
  size_t sent = 0;
  bool closed = false;
  bool replied = false;
  auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!closed && std::chrono::steady_clock::now() < give_up) {
    pollfd pfd{fd, POLLIN | POLLOUT, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    if (pfd.revents & (POLLIN | POLLHUP | POLLERR)) {
      char buf[64];
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      replied = replied || n > 0;
      closed = n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK);
    } else if (pfd.revents & POLLOUT) {
      // Endless 'a's: the request line never ends.
      ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (n > 0) sent += static_cast<size_t>(n);
      closed = n < 0 && errno != EAGAIN && errno != EWOULDBLOCK;
      bytes.assign(bytes.size(), 'a');
    }
  }
  ::close(fd);
  EXPECT_TRUE(closed);
  EXPECT_FALSE(replied);
  EXPECT_GT(sent, http::kMaxHeadBytes);
  // The daemon must still serve well-formed clients afterwards.
  FrameClient good(daemon_->port());
  auto reply = good.call(6, "/after-long-line", 3);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->payload, "content of /after-long-line");
}

TEST_F(BrokerDaemonTest, HttpOnMainPortIsSniffedAndServed) {
  // Plain HTTP/1.1 arriving on the wire-protocol port is recognized by the
  // first-byte sniff and answered as the HTTP gateway would.
  http::Request req;
  req.target = "/sniffed-page";
  auto resp = http_fetch(daemon_->port(), req, 2000);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->body, "content of /sniffed-page");
  EXPECT_EQ(resp->headers.get_view(http::kFidelityHeader).value_or(""), "full");
  // The repeat is a cache hit, served through the same probe as a frame's.
  auto again = http_fetch(daemon_->port(), req, 2000);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->status, 200);
  EXPECT_EQ(again->body, "content of /sniffed-page");
  EXPECT_EQ(again->headers.get_view(http::kFidelityHeader).value_or(""), "cached");
  core::BrokerMetrics::ClassCounters total = totals();
  EXPECT_EQ(total.cache_hits, 1u);
  EXPECT_EQ(total.issued, 2u);
  EXPECT_EQ(total.completed, 2u);
}

TEST(BrokerDaemonHttp, NegativeCacheHitMapsToBadGateway) {
  // A failed fetch is cached as a negative entry; the repeat is answered
  // from it as an error, which HTTP maps to 502 like the failure itself.
  struct Failing : core::Backend {
    Reactor* reactor = nullptr;
    int calls = 0;
    void invoke(const Call&, Completion done) override {
      ++calls;
      done(reactor->now(), false, "backend down");
    }
  };
  Reactor reactor;
  auto backend = std::make_shared<Failing>();
  backend->reactor = &reactor;
  BrokerDaemonConfig cfg;
  cfg.broker.enable_cache = true;
  cfg.broker.cache_ttl = 30.0;
  cfg.broker.cache_tuning.negative_ttl = 30.0;
  cfg.broker.lifecycle.max_attempts = 1;
  BrokerDaemon daemon(reactor, "failing-broker", cfg);
  daemon.add_backend(backend);
  std::thread t([&] { reactor.run(); });
  http::Request req;
  req.target = "/broken";
  auto first = http_fetch(daemon.port(), req, 2000);
  auto again = http_fetch(daemon.port(), req, 2000);
  reactor.stop();
  t.join();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->status, 502);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->status, 502);
  EXPECT_EQ(again->body, "backend down");
  EXPECT_EQ(again->headers.get_view(http::kFidelityHeader).value_or(""), "error");
  EXPECT_EQ(backend->calls, 1);
  EXPECT_EQ(daemon.broker().metrics().flight.negative_hits, 1u);
}

}  // namespace
}  // namespace sbroker::net
