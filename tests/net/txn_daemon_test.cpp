// Transaction escalation on the live reactor substrate: a BrokerDaemon whose
// outstanding window is saturated by slow class-3 fetches must shed an
// untagged class-1 frame request as busy, yet forward a class-1 request
// tagged as step 3 of a transaction it has already seen (the paper's
// transaction integrity assurance) — over TCP frames, UDP frames and the
// federation's kPeerFetch alike.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "net/broker_daemon.h"
#include "net/fed_hook.h"
#include "net/frame.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/pipelined_backend.h"

namespace sbroker::net {
namespace {

constexpr uint64_t kTxn = 77;
constexpr int kSlowFetches = 3;

/// Owner-side federation stub: never forwards, so peer fetches are served
/// here and the daemon accepts the peer frame kinds.
class LocalOnlyFederation : public FederationHook {
 public:
  bool try_forward(const http::BrokerRequest&, ForwardDone) override { return false; }
  void on_served(std::string_view, std::string_view, http::Fidelity) override {}
  void on_peer_fetch() override {}
  void on_push(const frame::Push&) override {}
  void on_gossip(const frame::Gossip&) override {}
};

/// Owning copy of a decoded reply frame.
FrameReply own(const frame::Reply& reply) {
  return FrameReply{reply.request_id, reply.fidelity, reply.flags,
                    std::string(reply.payload)};
}

/// One request frame as a datagram; the one reply frame back.
std::optional<FrameReply> udp_call(uint16_t port, const frame::Request& request) {
  std::string datagram;
  frame::encode_request(request, datagram);
  auto raw = udp_exchange(port, datagram);
  frame::Reply reply;
  if (!raw || frame::parse_reply(*raw, reply, nullptr) != frame::ParseResult::kFrame) {
    return std::nullopt;
  }
  return own(reply);
}

/// Reads `count` kPeerReply frames from the non-blocking `fd` (5s budget).
std::vector<FrameReply> read_peer_replies(int fd, size_t count) {
  std::string inbox;
  std::vector<FrameReply> replies;
  auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (replies.size() < count && std::chrono::steady_clock::now() < give_up) {
    frame::Reply reply;
    size_t consumed = 0;
    auto result = frame::parse_peer_reply(inbox, reply, &consumed);
    if (result == frame::ParseResult::kError) break;
    if (result == frame::ParseResult::kFrame) {
      replies.push_back(own(reply));
      inbox.erase(0, consumed);
      continue;
    }
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 100) != 1) continue;
    char buf[4096];
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    inbox.append(buf, static_cast<size_t>(n));
  }
  return replies;
}

/// Threshold 6 over three classes: class 1 is admitted while fewer than 2
/// requests are outstanding, class 3 while fewer than 6. Three slow class-3
/// fetches (300ms each) therefore shut class 1 out and leave class 3 room.
class TxnDaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    backend_server_ = std::make_unique<HttpServer>(
        backend_reactor_, 0,
        [this](const http::Request& req, HttpServer::Responder respond) {
          http::Response resp = http::make_response(200, "content of " + req.target);
          if (req.target.rfind("/slow", 0) != 0) {
            respond(resp);
            return;
          }
          backend_reactor_.add_timer(0.3, [respond, resp]() { respond(resp); });
        });
    backend_thread_ = std::thread([this] { backend_reactor_.run(); });

    core::BrokerConfig cfg;
    cfg.rules = core::QosRules{3, 6.0};
    cfg.enable_cache = false;
    daemon_ = std::make_unique<BrokerDaemon>(reactor_, "txn-broker", cfg, 0.005);
    daemon_->add_backend(
        std::make_shared<PipelinedBackend>(reactor_, backend_server_->port()));
    daemon_->set_federation(&federation_);
    listener_ = std::make_unique<TcpListener>(
        reactor_, 0, [this](int fd) { daemon_->adopt_client(fd); });
    udp_ = std::make_unique<UdpSocket>(
        reactor_, 0, [this](std::string_view payload, const sockaddr_in& from) {
          daemon_->on_datagram(*udp_, payload, from);
        });
    thread_ = std::thread([this] { reactor_.run(); });
  }

  void TearDown() override {
    reactor_.stop();
    thread_.join();
    backend_reactor_.stop();
    backend_thread_.join();
  }

  /// Broker's outstanding count, read on the daemon's reactor thread.
  size_t outstanding() {
    std::promise<size_t> snapshot;
    auto done = snapshot.get_future();
    reactor_.post([&]() { snapshot.set_value(daemon_->broker().outstanding()); });
    return done.get();
  }

  /// Step 1 of the transaction while the window is idle: admitted, and the
  /// broker now knows the transaction.
  void open_transaction() {
    FrameClient client(listener_->port());
    auto reply = client.call(frame::Request{1, 1, 0, "/step-1", kTxn, 1});
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->fidelity, http::Fidelity::kFull);
  }

  /// Starts the slow class-3 fetches and waits until all are outstanding.
  void saturate() {
    for (int i = 0; i < kSlowFetches; ++i) {
      slow_.push_back(std::async(std::launch::async, [this, i]() {
        FrameClient client(listener_->port());
        auto reply = client.call(static_cast<uint64_t>(100 + i),
                                 "/slow-" + std::to_string(i), 3);
        return reply ? reply->fidelity : http::Fidelity::kError;
      }));
    }
    auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (outstanding() < kSlowFetches &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(outstanding(), static_cast<size_t>(kSlowFetches));
  }

  /// The slow fetches were admitted and answered in full.
  void drain() {
    for (auto& f : slow_) EXPECT_EQ(f.get(), http::Fidelity::kFull);
    slow_.clear();
  }

  Reactor backend_reactor_;
  std::unique_ptr<HttpServer> backend_server_;
  std::thread backend_thread_;
  Reactor reactor_;
  LocalOnlyFederation federation_;
  std::unique_ptr<BrokerDaemon> daemon_;
  std::unique_ptr<TcpListener> listener_;
  std::unique_ptr<UdpSocket> udp_;
  std::thread thread_;
  std::vector<std::future<http::Fidelity>> slow_;
};

TEST_F(TxnDaemonTest, TaggedStepEscalatesOverTcpFrames) {
  open_transaction();
  saturate();
  FrameClient client(listener_->port());
  auto plain = client.call(frame::Request{10, 1, 0, "/plain"});
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->fidelity, http::Fidelity::kBusy);

  auto tagged = client.call(frame::Request{11, 1, 0, "/step-3", kTxn, 3});
  ASSERT_TRUE(tagged.has_value());
  EXPECT_EQ(tagged->request_id, 11u);
  EXPECT_EQ(tagged->fidelity, http::Fidelity::kFull);
  EXPECT_EQ(tagged->payload, "content of /step-3");
  drain();
}

TEST_F(TxnDaemonTest, TaggedStepEscalatesOverUdpFrames) {
  open_transaction();
  saturate();
  auto plain = udp_call(udp_->port(), frame::Request{20, 1, 0, "/plain"});
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->fidelity, http::Fidelity::kBusy);

  auto tagged =
      udp_call(udp_->port(), frame::Request{21, 1, 0, "/step-3", kTxn, 3});
  ASSERT_TRUE(tagged.has_value());
  EXPECT_EQ(tagged->request_id, 21u);
  EXPECT_EQ(tagged->fidelity, http::Fidelity::kFull);
  drain();
}

TEST_F(TxnDaemonTest, TaggedStepEscalatesOverPeerFetch) {
  open_transaction();
  saturate();
  // A federation peer forwarding misses: kPeerFetch frames on one
  // connection, answered with kPeerReply frames.
  int fd = connect_tcp(listener_->port());
  ASSERT_GE(fd, 0);
  std::string out;
  frame::encode_peer_fetch(frame::Request{30, 1, 0, "/plain"}, out);
  frame::encode_peer_fetch(frame::Request{31, 1, 0, "/step-3", kTxn, 3}, out);
  ASSERT_EQ(::send(fd, out.data(), out.size(), 0), static_cast<ssize_t>(out.size()));
  std::vector<FrameReply> replies = read_peer_replies(fd, 2);
  ::close(fd);
  ASSERT_EQ(replies.size(), 2u);
  // The busy notice is immediate; the forwarded step answers later.
  EXPECT_EQ(replies[0].request_id, 30u);
  EXPECT_EQ(replies[0].fidelity, http::Fidelity::kBusy);
  EXPECT_EQ(replies[1].request_id, 31u);
  EXPECT_EQ(replies[1].fidelity, http::Fidelity::kFull);
  EXPECT_EQ(replies[1].payload, "content of /step-3");
  drain();
}

}  // namespace
}  // namespace sbroker::net
