// UDP transport tests: raw socket echo and the broker daemon's datagram path
// (the paper's "lightweight UDP" broker channel).
#include "net/udp.h"

#include <gtest/gtest.h>

#include <future>
#include <thread>

#include "net/broker_daemon.h"
#include "net/frame.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/pipelined_backend.h"

namespace sbroker::net {
namespace {

TEST(Udp, EchoRoundTrip) {
  Reactor reactor;
  UdpSocket server(reactor, 0, [&](std::string_view payload, const sockaddr_in& from) {
    server.send_to(from, "echo:" + std::string(payload));
  });
  std::thread t([&] { reactor.run(); });
  auto reply = udp_exchange(server.port(), "ping");
  reactor.stop();
  t.join();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, "echo:ping");
  EXPECT_EQ(server.received(), 1u);
  EXPECT_EQ(server.sent(), 1u);
}

TEST(Udp, MultipleDatagramsOneSocket) {
  Reactor reactor;
  UdpSocket server(reactor, 0, [&](std::string_view payload, const sockaddr_in& from) {
    server.send_to(from, std::string(payload));
  });
  std::thread t([&] { reactor.run(); });
  for (int i = 0; i < 10; ++i) {
    auto reply = udp_exchange(server.port(), "msg" + std::to_string(i));
    ASSERT_TRUE(reply.has_value()) << i;
    EXPECT_EQ(*reply, "msg" + std::to_string(i));
  }
  reactor.stop();
  t.join();
}

TEST(Udp, ExchangeTimesOutWithoutServer) {
  // An unbound high port: nothing answers.
  auto reply = udp_exchange(1, "void", /*timeout_ms=*/200);
  EXPECT_FALSE(reply.has_value());
}

class UdpDaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    backend_server_ = std::make_unique<HttpServer>(
        reactor_, 0, [](const http::Request& req, HttpServer::Responder respond) {
          respond(http::make_response(200, "udp-served " + req.target));
        });
    BrokerDaemonConfig cfg;
    cfg.broker.rules = core::QosRules{3, 20.0};
    cfg.broker.enable_cache = true;
    cfg.broker.cache_ttl = 30.0;
    cfg.enable_udp = true;
    daemon_ = std::make_unique<BrokerDaemon>(reactor_, "udp-broker", cfg);
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

  /// Sends one request frame as a datagram and parses the one reply frame.
  std::optional<FrameReply> call(uint64_t id, uint8_t qos, std::string_view target) {
    std::string datagram;
    frame::encode_request(frame::Request{id, qos, 0, target}, datagram);
    auto raw = udp_exchange(daemon_->udp_port(), datagram);
    if (!raw) return std::nullopt;
    frame::Reply reply;
    size_t consumed = 0;
    if (frame::parse_reply(*raw, reply, &consumed) != frame::ParseResult::kFrame ||
        consumed != raw->size()) {
      return std::nullopt;
    }
    return FrameReply{reply.request_id, reply.fidelity, reply.flags,
                      std::string(reply.payload)};
  }

  Reactor reactor_;
  std::unique_ptr<HttpServer> backend_server_;
  std::unique_ptr<BrokerDaemon> daemon_;
  std::thread thread_;
};

TEST_F(UdpDaemonTest, DatagramRequestRoundTrip) {
  ASSERT_NE(daemon_->udp_port(), 0);
  auto reply = call(1, 3, "/page");
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->request_id, 1u);
  EXPECT_EQ(reply->fidelity, http::Fidelity::kFull);
  EXPECT_EQ(reply->payload, "udp-served /page");
}

TEST_F(UdpDaemonTest, CacheWorksOverUdp) {
  auto first = call(1, 3, "/cached");
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->fidelity, http::Fidelity::kFull);
  auto second = call(2, 3, "/cached");
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->fidelity, http::Fidelity::kCached);
  EXPECT_EQ(second->payload, "udp-served /cached");
  EXPECT_NE(second->flags & frame::kFlagCacheServed, 0);
  core::BrokerMetrics::ClassCounters total = totals();
  EXPECT_EQ(total.issued, 2u);
  EXPECT_EQ(total.issued, total.completed);
  EXPECT_EQ(total.cache_hits, 1u);
}

TEST_F(UdpDaemonTest, GarbageDatagramIsDroppedSilently) {
  auto raw = udp_exchange(daemon_->udp_port(), "this is not a frame", 200);
  EXPECT_FALSE(raw.has_value());  // no reply — UDP drop semantics
  // Daemon still healthy.
  auto reply = call(3, 3, "/after-garbage");
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->payload, "udp-served /after-garbage");
}

TEST_F(UdpDaemonTest, TruncatedFrameDatagramIsDropped) {
  std::string datagram;
  frame::encode_request(frame::Request{4, 3, 0, "/truncated"}, datagram);
  datagram.pop_back();  // the header announces one byte more than arrives
  EXPECT_FALSE(udp_exchange(daemon_->udp_port(), datagram, 200).has_value());
  auto reply = call(5, 3, "/after-truncated");
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->payload, "udp-served /after-truncated");
}

TEST_F(UdpDaemonTest, FrameWithTrailingBytesIsDropped) {
  // A datagram holds exactly one frame: a valid frame followed by anything
  // (here a second, complete frame) is malformed as a whole.
  std::string datagram;
  frame::encode_request(frame::Request{6, 3, 0, "/first"}, datagram);
  frame::encode_request(frame::Request{7, 3, 0, "/second"}, datagram);
  EXPECT_FALSE(udp_exchange(daemon_->udp_port(), datagram, 200).has_value());
  auto reply = call(8, 3, "/after-trailing");
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->request_id, 8u);
  EXPECT_EQ(reply->payload, "udp-served /after-trailing");
}

TEST_F(UdpDaemonTest, TcpAndUdpShareOneBroker) {
  auto udp_reply = call(1, 3, "/shared");
  ASSERT_TRUE(udp_reply.has_value());
  EXPECT_EQ(udp_reply->fidelity, http::Fidelity::kFull);
  // The same key over TCP hits the cache the UDP request populated.
  FrameClient tcp(daemon_->port());
  auto tcp_reply = tcp.call(2, "/shared", 3);
  ASSERT_TRUE(tcp_reply.has_value());
  EXPECT_EQ(tcp_reply->fidelity, http::Fidelity::kCached);
}

}  // namespace
}  // namespace sbroker::net
