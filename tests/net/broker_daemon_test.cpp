// End-to-end over real sockets: blocking BrokerClient -> BrokerDaemon
// (wire protocol, TCP) -> PipelinedBackend -> mini HTTP backend server.
#include "net/broker_daemon.h"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <thread>

#include "db/dataset.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/pipelined_backend.h"
#include "srv/inproc_backend.h"

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

  http::BrokerRequest request(uint64_t id, int level, std::string target) {
    http::BrokerRequest req;
    req.request_id = id;
    req.qos_level = static_cast<uint8_t>(level);
    req.service = "web";
    req.payload = std::move(target);
    return req;
  }

  Reactor reactor_;
  std::unique_ptr<HttpServer> backend_server_;
  std::unique_ptr<BrokerDaemon> daemon_;
  std::thread thread_;
};

TEST_F(BrokerDaemonTest, FullFidelityRoundTrip) {
  BrokerClient client(daemon_->port());
  auto reply = client.call(request(1, 3, "/page-1"));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->request_id, 1u);
  EXPECT_EQ(reply->fidelity, http::Fidelity::kFull);
  EXPECT_EQ(reply->payload, "content of /page-1");
}

TEST_F(BrokerDaemonTest, SecondIdenticalRequestServedFromCache) {
  BrokerClient client(daemon_->port());
  auto first = client.call(request(1, 3, "/cached-page"));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->fidelity, http::Fidelity::kFull);
  auto second = client.call(request(2, 3, "/cached-page"));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->fidelity, http::Fidelity::kCached);
  EXPECT_EQ(second->payload, "content of /cached-page");
}

TEST_F(BrokerDaemonTest, SequentialRequestsOnOneConnection) {
  BrokerClient client(daemon_->port());
  for (uint64_t i = 0; i < 10; ++i) {
    auto reply = client.call(request(i, 2, "/p" + std::to_string(i)));
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
      BrokerClient client(daemon_->port());
      for (int i = 0; i < 5; ++i) {
        uint64_t id = static_cast<uint64_t>(c) * 100 + static_cast<uint64_t>(i);
        auto reply = client.call(request(id, 2, "/t" + std::to_string(id)));
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
  BrokerClient client(lonely.port());
  auto reply = client.call(request(1, 3, "/x"));
  reactor2.stop();
  t.join();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->fidelity, http::Fidelity::kError);
}

TEST_F(BrokerDaemonTest, MalformedBytesCloseConnection) {
  BrokerClient good(daemon_->port());
  {
    // A first byte that is neither the frame magic, the legacy 'S' of SBRK,
    // nor an ASCII letter fails the protocol sniff; the daemon closes the
    // connection without replying.
    int fd = connect_tcp(daemon_->port());
    ASSERT_GE(fd, 0);
    const char junk[] = "\x01\x02garbage";
    ASSERT_GT(::send(fd, junk, sizeof(junk) - 1, 0), 0);
    // connect_tcp hands back a non-blocking fd; wait for the peer close.
    pollfd pfd{fd, POLLIN, 0};
    ASSERT_EQ(::poll(&pfd, 1, 2000), 1);
    char buf[64];
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    EXPECT_EQ(n, 0);  // EOF, not data: closed without replying
    ::close(fd);
  }
  // The daemon must still serve well-formed clients afterwards.
  auto reply = good.call(request(5, 3, "/still-alive"));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->payload, "content of /still-alive");
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
}

TEST_F(BrokerDaemonTest, InprocDbBackendServesSql) {
  Reactor reactor2;
  db::Database db;
  util::Rng rng(1);
  db::load_benchmark_table(db, rng, 200, 5);
  BrokerDaemonConfig cfg;
  cfg.broker.enable_cache = false;
  BrokerDaemon daemon(reactor2, "db-broker", cfg);
  daemon.add_backend(std::make_shared<srv::InprocDbBackend>(
      db, [&reactor2] { return reactor2.now(); }));
  std::thread t([&] { reactor2.run(); });
  BrokerClient client(daemon.port());
  auto reply = client.call(request(1, 3, "SELECT id FROM records WHERE id = 42"));
  reactor2.stop();
  t.join();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->fidelity, http::Fidelity::kFull);
  EXPECT_EQ(reply->payload, "id\n42\n");
}

}  // namespace
}  // namespace sbroker::net
