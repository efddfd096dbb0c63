// End-to-end over real sockets: blocking FrameClient -> BrokerDaemon
// (binary frames, TCP) -> PipelinedBackend -> mini HTTP backend server.
#include "net/broker_daemon.h"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <future>
#include <thread>

#include "net/http_client.h"
#include "net/http_server.h"
#include "net/pipelined_backend.h"

namespace sbroker::net {
namespace {

class BrokerDaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Backend HTTP server: /page-N answers with a body naming the target.
    // Targets under /held/ wait for a second one, so two requests overlap at
    // the broker; both are then answered.
    backend_server_ = std::make_unique<HttpServer>(
        reactor_, 0, [this](const http::Request& req, HttpServer::Responder respond) {
          auto body = "content of " + req.target;
          if (req.target.rfind("/held/", 0) != 0) {
            respond(http::make_response(200, body));
            return;
          }
          held_.emplace_back(std::move(body), std::move(respond));
          if (held_.size() < 2) return;
          for (auto& [held_body, responder] : held_) {
            responder(http::make_response(200, held_body));
          }
          held_.clear();
        });

    core::BrokerConfig cfg;
    cfg.rules = core::QosRules{3, 20.0};
    cfg.enable_cache = true;
    cfg.cache_ttl = 30.0;
    daemon_ = std::make_unique<BrokerDaemon>(reactor_, "web-broker", cfg, 0.005);
    daemon_->add_backend(
        std::make_shared<PipelinedBackend>(reactor_, backend_server_->port()));
    listener_ = std::make_unique<TcpListener>(
        reactor_, 0, [this](int fd) { daemon_->adopt_client(fd); });

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
  std::vector<std::pair<std::string, HttpServer::Responder>> held_;
  std::unique_ptr<HttpServer> backend_server_;
  std::unique_ptr<BrokerDaemon> daemon_;
  std::unique_ptr<TcpListener> listener_;
  std::thread thread_;
};

TEST_F(BrokerDaemonTest, FullFidelityRoundTrip) {
  FrameClient client(listener_->port());
  auto reply = client.call(1, "/page-1", 3);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->request_id, 1u);
  EXPECT_EQ(reply->fidelity, http::Fidelity::kFull);
  EXPECT_EQ(reply->payload, "content of /page-1");
}

TEST_F(BrokerDaemonTest, SecondIdenticalRequestServedFromCache) {
  FrameClient client(listener_->port());
  auto first = client.call(1, "/cached-page", 3);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->fidelity, http::Fidelity::kFull);
  auto second = client.call(2, "/cached-page", 3);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->fidelity, http::Fidelity::kCached);
  EXPECT_EQ(second->payload, "content of /cached-page");
  // The hit is counted once, at the cache probe both requests went through.
  core::BrokerMetrics::ClassCounters total = totals();
  EXPECT_EQ(total.cache_hits, 1u);
  EXPECT_EQ(total.issued, 2u);
  EXPECT_EQ(total.completed, 2u);
}

TEST_F(BrokerDaemonTest, SequentialRequestsOnOneConnection) {
  FrameClient client(listener_->port());
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
      FrameClient client(listener_->port());
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

TEST_F(BrokerDaemonTest, ConnectionsReusingOneRequestIdEachGetTheirReply) {
  // Request ids are the client's own: two connections may both send id 1
  // at once. Each must get its own answer, and no load unit may leak.
  std::optional<FrameReply> replies[2];
  std::vector<std::thread> threads;
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&, c] {
      FrameClient client(listener_->port(), /*timeout_ms=*/3000);
      replies[c] = client.call(1, c == 0 ? "/held/a" : "/held/b", 3);
    });
  }
  for (auto& t : threads) t.join();
  for (int c = 0; c < 2; ++c) {
    ASSERT_TRUE(replies[c].has_value()) << "connection " << c << " got no reply";
    EXPECT_EQ(replies[c]->request_id, 1u);
    EXPECT_EQ(replies[c]->fidelity, http::Fidelity::kFull);
    EXPECT_EQ(replies[c]->payload, c == 0 ? "content of /held/a" : "content of /held/b");
  }
  std::promise<int64_t> load;
  reactor_.post([&]() { load.set_value(daemon_->broker().load_tracker().outstanding()); });
  EXPECT_EQ(load.get_future().get(), 0);
}

TEST_F(BrokerDaemonTest, UnreachableBackendYieldsError) {
  Reactor reactor2;
  core::BrokerConfig cfg;
  cfg.enable_cache = false;
  BrokerDaemon lonely(reactor2, "lonely", cfg, 0.02);
  lonely.add_backend(std::make_shared<PipelinedBackend>(reactor2, 1));  // port 1: closed
  TcpListener listener(reactor2, 0, [&](int fd) { lonely.adopt_client(fd); });
  std::thread t([&] { reactor2.run(); });
  FrameClient client(listener.port());
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
  FrameClient good(listener_->port());
  // The main port speaks frames only: bytes that do not start with the frame
  // magic close the connection without a reply.
  EXPECT_TRUE(closed_without_reply(listener_->port(), "\x01\x02garbage"));
  // A plain HTTP/1.1 request is no exception.
  EXPECT_TRUE(closed_without_reply(listener_->port(), "GET / HTTP/1.1\r\n\r\n"));
  // Nor is a client of the retired legacy codec, which opens with its magic
  // 'S' 'B' 'R' 'K'.
  const char legacy[] = "\x53\x42\x52\x4b\x01\x01\x07\x00\r\n";
  EXPECT_TRUE(closed_without_reply(listener_->port(),
                                   std::string_view(legacy, sizeof(legacy) - 1)));
  // The daemon must still serve well-formed clients afterwards.
  auto reply = good.call(5, "/still-alive", 3);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->payload, "content of /still-alive");
}

TEST(BrokerDaemonErrors, NegativeCacheHitAnswersError) {
  // A failed fetch is cached as a negative entry; the repeat is answered
  // from it as an error, like the failure itself, without a backend call.
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
  core::BrokerConfig cfg;
  cfg.enable_cache = true;
  cfg.cache_ttl = 30.0;
  cfg.cache_tuning.negative_ttl = 30.0;
  cfg.lifecycle.max_attempts = 1;
  BrokerDaemon daemon(reactor, "failing-broker", cfg, 0.02);
  daemon.add_backend(backend);
  TcpListener listener(reactor, 0, [&](int fd) { daemon.adopt_client(fd); });
  std::thread t([&] { reactor.run(); });
  FrameClient client(listener.port(), 2000);
  auto first = client.call(1, "/broken");
  auto again = client.call(2, "/broken");
  reactor.stop();
  t.join();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->fidelity, http::Fidelity::kError);
  EXPECT_EQ(first->payload, "backend down");
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->fidelity, http::Fidelity::kError);
  EXPECT_EQ(again->payload, "backend down");
  EXPECT_EQ(backend->calls, 1);
  EXPECT_EQ(daemon.broker().metrics().flight.negative_hits, 1u);
}

}  // namespace
}  // namespace sbroker::net
