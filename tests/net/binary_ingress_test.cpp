// Binary frame ingress on the daemon's main port: frame reassembly,
// robustness against malformed bytes (HTTP included), and the
// write-coalescing counters.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "net/broker_daemon.h"
#include "net/frame.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/pipelined_backend.h"
#include "net/sharded_daemon.h"

namespace sbroker::net {
namespace {

class BinaryIngressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    backend_server_ = std::make_unique<HttpServer>(
        reactor_, 0, [](const http::Request& req, HttpServer::Responder respond) {
          respond(http::make_response(200, "content of " + req.target));
        });

    core::BrokerConfig cfg;
    cfg.rules = core::QosRules{3, 20.0};
    cfg.enable_cache = true;
    cfg.cache_ttl = 30.0;
    daemon_ = std::make_unique<BrokerDaemon>(reactor_, "bin-broker", cfg, 0.005);
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

  /// Thread-safe snapshot of the daemon's wire counters (posted onto the
  /// reactor, same pattern as ShardedBrokerDaemon::aggregate_wire_stats).
  WireStats wire() {
    std::promise<WireStats> snapshot;
    auto done = snapshot.get_future();
    reactor_.post([&]() { snapshot.set_value(daemon_->wire_stats()); });
    return done.get();
  }

  Reactor reactor_;
  std::unique_ptr<HttpServer> backend_server_;
  std::unique_ptr<BrokerDaemon> daemon_;
  std::unique_ptr<TcpListener> listener_;
  std::thread thread_;
};

TEST_F(BinaryIngressTest, FrameRoundTripAndCacheFlags) {
  FrameClient client(listener_->port());
  auto first = client.call(1, "/frame-page", /*qos_level=*/3);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->request_id, 1u);
  EXPECT_EQ(first->fidelity, http::Fidelity::kFull);
  EXPECT_EQ(first->flags, 0u);
  EXPECT_EQ(first->payload, "content of /frame-page");

  // The repeat is answered by the allocation-free arena fast path, and the
  // reply flags spell out that the cache served it.
  auto second = client.call(2, "/frame-page", /*qos_level=*/3);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->request_id, 2u);
  EXPECT_EQ(second->fidelity, http::Fidelity::kCached);
  EXPECT_NE(second->flags & frame::kFlagCacheServed, 0u);
  EXPECT_EQ(second->payload, "content of /frame-page");

  WireStats stats = wire();
  EXPECT_EQ(stats.frames_in, 2u);
  EXPECT_EQ(stats.fast_hits, 1u);
  EXPECT_EQ(stats.flushed_responses, 2u);
}

TEST_F(BinaryIngressTest, TaggedCacheHitAdvancesTransaction) {
  // A transaction step answered by the arena fast path still counts as
  // progress: a later step of the same transaction escalates from there.
  FrameClient client(listener_->port());
  ASSERT_TRUE(client.call(1, "/catalog").has_value());  // warm the cache
  auto hit = client.call(frame::Request{2, 1, 0, "/catalog", /*txn_id=*/9,
                                        /*txn_step=*/2});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->fidelity, http::Fidelity::kCached);
  std::promise<int> step;
  auto done = step.get_future();
  reactor_.post([&]() {
    step.set_value(daemon_->broker().transactions().highest_step(9));
  });
  EXPECT_EQ(done.get(), 2);
  EXPECT_EQ(wire().fast_hits, 1u);
}

TEST_F(BinaryIngressTest, FrameSplitAcrossTcpReadsStillServed) {
  FrameClient client(listener_->port());
  std::string encoded;
  frame::encode_request(frame::Request{7, 2, 0, "/split-frame"}, encoded);
  // Feed the frame in three fragments with pauses so the daemon sees
  // separate reads: header fragment, a few section bytes, the rest.
  ASSERT_TRUE(client.send_raw(encoded.substr(0, 5)));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(client.send_raw(encoded.substr(5, 9)));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(client.send_raw(encoded.substr(14)));
  auto reply = client.read_reply();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->request_id, 7u);
  EXPECT_EQ(reply->payload, "content of /split-frame");
}

TEST_F(BinaryIngressTest, TwoFramesInOneSendBothServed) {
  FrameClient client(listener_->port());
  auto replies = client.call_burst(10, {"/burst-a", "/burst-b"});
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].request_id, 10u);
  EXPECT_EQ(replies[0].payload, "content of /burst-a");
  EXPECT_EQ(replies[1].request_id, 11u);
  EXPECT_EQ(replies[1].payload, "content of /burst-b");
}

TEST_F(BinaryIngressTest, OversizedFrameClosesConnection) {
  FrameClient client(listener_->port());
  // Hand-rolled header announcing a section just past the 64 MiB cap: this
  // must be treated as a protocol error immediately, not a "wait for 64 MiB".
  uint32_t length = frame::kMaxSectionLength + 1;
  std::string header;
  header.push_back(static_cast<char>(frame::kMagic));
  header.push_back(static_cast<char>(frame::kVersion));
  header.push_back(static_cast<char>(frame::kKindRequest));
  header.push_back(1);  // qos
  for (int i = 0; i < 4; ++i) {
    header.push_back(static_cast<char>((length >> (8 * i)) & 0xFF));
  }
  ASSERT_TRUE(client.send_raw(header));
  EXPECT_FALSE(client.read_reply().has_value());  // closed without a reply
}

TEST_F(BinaryIngressTest, GarbageAfterValidFrameClosesConnection) {
  FrameClient client(listener_->port());
  auto ok = client.call(1, "/before-garbage");
  ASSERT_TRUE(ok.has_value());
  // Wrong magic mid-stream is a framing error. Even this partial header is
  // rejected immediately — a bad first byte can never recover.
  ASSERT_TRUE(client.send_raw(std::string("\xFF\x01\x01", 3)));
  EXPECT_FALSE(client.read_reply().has_value());
  // The daemon survives and keeps serving fresh connections.
  FrameClient again(listener_->port());
  auto reply = again.call(2, "/after-garbage");
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->payload, "content of /after-garbage");
}

TEST_F(BinaryIngressTest, TruncatedFrameThenDisconnectIsHarmless) {
  {
    FrameClient client(listener_->port());
    std::string encoded;
    frame::encode_request(frame::Request{3, 1, 0, "/never-finished"}, encoded);
    ASSERT_TRUE(client.send_raw(encoded.substr(0, encoded.size() - 4)));
    // Destructor closes mid-frame; the daemon must just drop the buffer.
  }
  FrameClient client(listener_->port());
  auto reply = client.call(4, "/alive-after-truncation");
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->payload, "content of /alive-after-truncation");
}

TEST_F(BinaryIngressTest, FrameAndHttpInterleavedOnOnePort) {
  // HTTP/1.1 requests interleaved with frames on the daemon's one main port:
  // each HTTP request closes its own connection without an answer, while the
  // frame connection beside it keeps being served.
  FrameClient framed(listener_->port());
  for (int i = 0; i < 3; ++i) {
    std::string target = "/mixed-" + std::to_string(i);

    auto f = framed.call(static_cast<uint64_t>(100 + i), target);
    ASSERT_TRUE(f.has_value()) << i;
    EXPECT_EQ(f->payload, "content of " + target);

    http::Request hreq;
    hreq.target = target;
    auto sent = std::chrono::steady_clock::now();
    EXPECT_FALSE(http_fetch(listener_->port(), hreq, 2000).has_value()) << i;
    // Closed by the daemon, not given up on by the client.
    EXPECT_LT(std::chrono::steady_clock::now() - sent, std::chrono::seconds(1)) << i;
  }

  WireStats stats = wire();
  EXPECT_EQ(stats.frames_in, 3u);  // the frames only
  EXPECT_EQ(stats.flushed_responses, 3u);
}

TEST_F(BinaryIngressTest, PipelinedCacheHitsCoalesceIntoFewerFlushes) {
  FrameClient client(listener_->port());
  // Prime the cache, then pipeline a burst of identical cached queries in
  // one send: the daemon answers them all within one reactor cycle, so the
  // replies ride a single coalesced writev rather than one syscall each.
  ASSERT_TRUE(client.call(1, "/hot-key").has_value());
  constexpr size_t kBurst = 16;
  std::vector<std::string> queries(kBurst, "/hot-key");
  auto replies = client.call_burst(2, queries);
  ASSERT_EQ(replies.size(), kBurst);
  for (const auto& r : replies) {
    EXPECT_EQ(r.fidelity, http::Fidelity::kCached);
    EXPECT_EQ(r.payload, "content of /hot-key");
  }

  WireStats stats = wire();
  EXPECT_EQ(stats.frames_in, kBurst + 1);
  EXPECT_GE(stats.fast_hits, kBurst);
  EXPECT_EQ(stats.flushed_responses, kBurst + 1);
  // Coalescing evidence: more responses flushed than flush() calls.
  EXPECT_GT(stats.flushed_responses, stats.flushes);
  EXPECT_GE(stats.flushes, 1u);
}

// ---------------------------------------------------------------------------
// Sharded daemon: binary clients against the shared port, conservation, and
// wire-stats aggregation across shards.

TEST(BinaryIngressSharded, ConservationAndAggregatedWireStats) {
  Reactor backend_reactor;
  HttpServer backend(backend_reactor, 0,
                     [](const http::Request& req, HttpServer::Responder respond) {
                       respond(http::make_response(200, "content of " + req.target));
                     });
  std::thread backend_thread([&] { backend_reactor.run(); });

  ShardedBrokerDaemonConfig cfg;
  cfg.broker.rules = core::QosRules{3, 50.0};
  cfg.broker.enable_cache = true;
  cfg.broker.cache_ttl = 30.0;
  cfg.shards = 2;
  cfg.enable_udp = false;
  cfg.admin.enabled = false;
  auto daemon = std::make_unique<ShardedBrokerDaemon>("bin-sharded", cfg);
  daemon->add_backend([&](Reactor& reactor, size_t) {
    return std::make_shared<PipelinedBackend>(reactor, backend.port());
  });
  daemon->start();

  constexpr int kClients = 4;
  constexpr int kPerClient = 20;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      FrameClient client(daemon->port());
      for (int i = 0; i < kPerClient; ++i) {
        uint64_t id = static_cast<uint64_t>(c) * 1000 + static_cast<uint64_t>(i);
        // Half the keys repeat across clients, so some requests exercise the
        // shared-cache fast path on whichever shard they land on.
        std::string target = i % 2 == 0 ? "/shared-" + std::to_string(i)
                                        : "/own-" + std::to_string(id);
        auto reply = client.call(id, target, 1 + i % 3);
        if (reply && reply->request_id == id &&
            reply->payload == "content of " + target) {
          ++ok;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients * kPerClient);

  core::BrokerMetrics metrics = daemon->aggregate_metrics();
  core::BrokerMetrics::ClassCounters total = metrics.total();
  EXPECT_EQ(total.issued, static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_EQ(total.completed, total.issued);
  EXPECT_EQ(total.errors, 0u);

  WireStats stats = daemon->aggregate_wire_stats();  // post() path
  EXPECT_EQ(stats.frames_in, static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.flushed_responses, stats.frames_in);

  daemon->stop();
  WireStats stopped = daemon->aggregate_wire_stats();  // direct-read path
  EXPECT_EQ(stopped.frames_in, stats.frames_in);

  backend_reactor.stop();
  backend_thread.join();
}

}  // namespace
}  // namespace sbroker::net
