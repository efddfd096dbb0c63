// Federation end-to-end, in-process: three FederatedDaemons on real sockets
// forwarding misses to ring owners, replicating hot keys, exchanging load
// gossip, and surviving a member stop without stranding requests.
#include "fed/federation.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/admin.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/pipelined_backend.h"
#include "net/tcp.h"
#include "util/json.h"

namespace sbroker::fed {
namespace {

using net::FrameClient;

/// Binds an ephemeral port and releases it: the federation needs every
/// member's port known before any member exists. The tiny bind/close race
/// is acceptable in the test container.
uint16_t reserve_port() {
  auto [fd, port] = net::listen_tcp(0);
  close(fd);
  return port;
}

class FederationTest : public ::testing::Test {
 protected:
  static constexpr size_t kNodes = 3;

  void SetUp() override {
    backend_server_ = std::make_unique<net::HttpServer>(
        backend_reactor_, 0,
        [this](const http::Request& req, net::HttpServer::Responder respond) {
          backend_calls_.fetch_add(1, std::memory_order_relaxed);
          respond(http::make_response(200, "content of " + req.target));
        });
    backend_thread_ = std::thread([this] { backend_reactor_.run(); });
    for (size_t i = 0; i < kNodes; ++i) ports_.push_back(reserve_port());
  }

  void TearDown() override {
    nodes_.clear();  // stop daemons before the backend they talk to
    backend_reactor_.stop();
    backend_thread_.join();
  }

  /// Builds and starts all nodes, with the admin plane when `admin`.
  void start_nodes(bool admin = false) {
    for (size_t i = 0; i < kNodes; ++i) {
      net::ShardedBrokerDaemonConfig cfg;
      cfg.broker.rules = core::QosRules{3, 200.0};
      cfg.broker.enable_cache = true;
      cfg.broker.cache_ttl = 30.0;
      cfg.shards = 1;
      cfg.enable_udp = false;
      cfg.tick_interval = 0.005;
      cfg.admin.enabled = admin;

      FedNodeConfig fed;
      fed.node_id = static_cast<uint32_t>(i);
      fed.peer_ports = ports_;
      fed.gossip_interval = 0.02;
      fed.dial_backoff = 0.05;  // recover fast from startup-order refusals

      auto node = std::make_unique<FederatedDaemon>(
          "fed" + std::to_string(i), cfg, fed);
      uint16_t backend_port = backend_server_->port();
      node->add_backend([backend_port](net::Reactor& reactor, size_t) {
        return std::make_shared<net::PipelinedBackend>(reactor, backend_port);
      });
      node->start();
      nodes_.push_back(std::move(node));
    }
    // Mesh barrier: nodes start one after another, so an early node's first
    // gossip tick can dial a peer that is not listening yet, parking that
    // channel in dial backoff — during which misses correctly fail over to
    // local serving instead of forwarding. The strict-forwarding assertions
    // below assume a formed mesh, so wait until every node sees every peer
    // fresh: peer j fresh at node i proves j's gossip crossed the j→i
    // channel, and across all (i, j) that covers every directed channel the
    // forwarding path will use (tests run one shard, and gossip rides the
    // same per-shard channels as forwards).
    ASSERT_TRUE(wait_for([this] {
      for (auto& node : nodes_) {
        size_t fresh = 0;
        for (const auto& peer : node->view().snapshot()) {
          if (peer.fresh) ++fresh;
        }
        if (fresh + 1 < kNodes) return false;
      }
      return true;
    }, 5000))
        << "federation never fully meshed";
  }

  /// Spin-waits (with a deadline) for a federation condition.
  static bool wait_for(const std::function<bool()>& cond, int timeout_ms = 3000) {
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (cond()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return cond();
  }

  /// A key whose full-membership ring owner is `owner`.
  std::string key_owned_by(size_t owner, int salt = 0) const {
    const Ring& ring = nodes_[0]->ring();
    for (int i = salt;; ++i) {
      std::string k = "/obj-" + std::to_string(i);
      if (ring.owner(k) == owner) return k;
    }
  }

  /// Highest step `node`'s (single) shard broker has seen of transaction
  /// `txn`; read on that shard's reactor thread.
  static int highest_step(FederatedDaemon& node, uint64_t txn) {
    std::promise<int> step;
    auto done = step.get_future();
    node.daemon().shard_reactor(0).post([&]() {
      core::ServiceBroker& broker = node.daemon().shard(0).broker();
      step.set_value(broker.transactions().highest_step(txn));
    });
    return done.get();
  }

  /// Tier-wide metric totals (every node's shards folded together).
  core::BrokerMetrics::ClassCounters tier_totals() {
    core::BrokerMetrics::ClassCounters total;
    for (auto& node : nodes_) {
      core::BrokerMetrics m = node->daemon().aggregate_metrics();
      core::BrokerMetrics::ClassCounters t = m.total();
      total.issued += t.issued;
      total.completed += t.completed;
      total.cache_hits += t.cache_hits;
      total.forwarded += t.forwarded;
      total.dropped += t.dropped;
      total.errors += t.errors;
    }
    return total;
  }

  net::Reactor backend_reactor_;
  std::unique_ptr<net::HttpServer> backend_server_;
  std::thread backend_thread_;
  std::atomic<uint64_t> backend_calls_{0};
  std::vector<uint16_t> ports_;
  std::vector<std::unique_ptr<FederatedDaemon>> nodes_;
};

TEST_F(FederationTest, MissForwardingCollapsesFetchesOntoOwners) {
  start_nodes();
  constexpr int kKeys = 30;

  // Every key requested twice, through two different nodes. Whichever node
  // a request enters at, its fetch must land on the key's owner — so each
  // key costs exactly one backend call tier-wide, and the repeat is a
  // cache-served answer wherever it entered.
  FrameClient via0(nodes_[0]->port());
  FrameClient via1(nodes_[1]->port());
  uint64_t id = 1;
  int ok = 0, cached_repeats = 0;
  for (int i = 0; i < kKeys; ++i) {
    std::string k = "/obj-" + std::to_string(i);
    auto first = via0.call(id++, k);
    ASSERT_TRUE(first.has_value()) << k;
    if (first->payload == "content of " + k) ++ok;
    auto second = via1.call(id++, k);
    ASSERT_TRUE(second.has_value()) << k;
    if (second->payload == "content of " + k) ++ok;
    if (second->flags & net::frame::kFlagCacheServed) ++cached_repeats;
  }
  EXPECT_EQ(ok, 2 * kKeys);
  // One fetch per key: forwarding + the owner's cache/single-flight dedups
  // the second request regardless of which node it entered at.
  EXPECT_EQ(backend_calls_.load(), static_cast<uint64_t>(kKeys));
  EXPECT_EQ(cached_repeats, kKeys);

  // Cross-node traffic actually happened (not everything self-owned).
  uint64_t forwards = 0;
  for (auto& node : nodes_) forwards += node->counters().forwards_sent.load();
  EXPECT_GT(forwards, 0u);

  // Conservation: every request was counted (issued) at exactly one broker
  // in the tier and answered exactly once.
  auto total = tier_totals();
  EXPECT_EQ(total.issued, static_cast<uint64_t>(2 * kKeys));
  EXPECT_EQ(total.completed, total.issued);
  EXPECT_EQ(total.errors, 0u);
  EXPECT_EQ(total.dropped, 0u);
}

TEST_F(FederationTest, PeerRepliesPreserveOwnerFidelityFlags) {
  start_nodes();
  // A key owned by node 2, requested twice through node 0: the second
  // answer is the owner's cache hit, and the relayed reply must carry the
  // owner's cache-served flag and kCached fidelity end-to-end.
  std::string k = key_owned_by(2);
  FrameClient client(nodes_[0]->port());
  auto first = client.call(1, k);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->fidelity, http::Fidelity::kFull);
  auto second = client.call(2, k);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->fidelity, http::Fidelity::kCached);
  EXPECT_TRUE(second->flags & net::frame::kFlagCacheServed);
  EXPECT_GE(nodes_[0]->counters().forwards_sent.load(), 2u);
  EXPECT_GE(nodes_[2]->counters().fetches_served.load(), 2u);
}

TEST_F(FederationTest, ForwardedMissCarriesTransactionTag) {
  start_nodes();
  // A tagged step entering at node 0 for a key node 2 owns is served by
  // node 2, so transaction escalation happens at the owner: the tag has to
  // survive the kPeerFetch hop.
  std::string k = key_owned_by(2);
  FrameClient client(nodes_[0]->port());
  auto reply =
      client.call(net::frame::Request{1, 1, 0, k, /*txn_id=*/55, /*txn_step=*/3});
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->fidelity, http::Fidelity::kFull);
  EXPECT_EQ(nodes_[2]->counters().fetches_served.load(), 1u);
  EXPECT_EQ(highest_step(*nodes_[2], 55), 3);
  EXPECT_EQ(highest_step(*nodes_[0], 55), 0);  // the forwarder only relayed it
}

TEST_F(FederationTest, HotKeyIsReplicatedToEveryPeerCache) {
  start_nodes();
  // Hammer a node-0-owned key through node 1: every access funnels to the
  // owner (forwarded), so the owner's hotness counter sees the true rate
  // and pushes the key to all peers once it crosses kHotThreshold serves
  // within one kHotWindow (twice the threshold, well inside the window).
  std::string k = key_owned_by(0);
  FrameClient via1(nodes_[1]->port());
  for (uint64_t id = 1; id <= 2 * kHotThreshold; ++id) {
    auto reply = via1.call(id, k);
    ASSERT_TRUE(reply.has_value());
  }
  ASSERT_TRUE(wait_for([&] {
    return nodes_[1]->counters().pushes_received.load() >= 1 &&
           nodes_[2]->counters().pushes_received.load() >= 1;
  })) << "hot key never replicated";
  EXPECT_GE(nodes_[0]->counters().pushes_sent.load(), 2u);

  // Once replicated, the non-owner answers from its own cache: no new
  // forwards for this key.
  uint64_t forwards_before = nodes_[1]->counters().forwards_sent.load();
  auto local = via1.call(99, k);
  ASSERT_TRUE(local.has_value());
  EXPECT_EQ(local->fidelity, http::Fidelity::kCached);
  EXPECT_EQ(nodes_[1]->counters().forwards_sent.load(), forwards_before);
}

TEST_F(FederationTest, GossipPopulatesEveryGlobalView) {
  start_nodes();
  ASSERT_TRUE(wait_for([&] {
    for (auto& node : nodes_) {
      if (node->view().updates() == 0) return false;
    }
    return true;
  })) << "gossip never arrived";
  for (size_t i = 0; i < kNodes; ++i) {
    EXPECT_GE(nodes_[i]->counters().gossip_rounds.load(), 1u) << "node " << i;
    // At least one peer (not self) reporting fresh; wait_for because a
    // scheduler stall longer than the staleness window can blink freshness off
    // between rounds.
    EXPECT_TRUE(wait_for([&] {
      for (const auto& peer : nodes_[i]->view().snapshot()) {
        if (peer.fresh) return true;
      }
      return false;
    })) << "node " << i;
  }
}

TEST_F(FederationTest, StoppedPeerFailsOverWithoutStrandingRequests) {
  start_nodes();
  std::string k0 = key_owned_by(2, 0);
  // Warm the channel so node 0 holds a live connection to node 2.
  FrameClient client(nodes_[0]->port());
  ASSERT_TRUE(client.call(1, k0).has_value());

  // Node 2 goes away mid-operation (reactors stop, sockets close).
  nodes_[2]->stop();

  // Requests for node-2-owned keys through a survivor must still answer —
  // dead-channel fetch failure falls back to a local fetch, and once the
  // channel is marked down the ring reroutes ownership to a survivor. Each
  // exchange is bounded by the client timeout: no request hangs.
  int answered = 0;
  uint64_t id = 100;
  for (int i = 0; i < 10; ++i) {
    std::string k = key_owned_by(2, i * 1000);
    auto start = std::chrono::steady_clock::now();
    auto reply = client.call(id++, k, /*qos_level=*/1, /*deadline_ms=*/1500);
    double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_LT(elapsed, 2.5) << "request hung past its deadline budget";
    if (reply.has_value() && reply->fidelity != http::Fidelity::kError) {
      ++answered;
    }
  }
  EXPECT_EQ(answered, 10);

  // Survivors stay conservation-clean: everything their brokers admitted
  // completed (tier sums may double-count an exchange the dead node served
  // but whose reply was lost, so the per-survivor identity is the gate).
  for (size_t i = 0; i < 2; ++i) {
    auto total = nodes_[i]->daemon().aggregate_metrics().total();
    EXPECT_EQ(total.issued, total.completed) << "node " << i;
  }
}

TEST_F(FederationTest, AdminPlaneExposesFederation) {
  start_nodes(/*admin=*/true);
  // Drive one forwarded request so the counters are non-trivial.
  std::string k = key_owned_by(1);
  FrameClient via0(nodes_[0]->port());
  ASSERT_TRUE(via0.call(1, k).has_value());

  http::Request req;
  req.method = "GET";
  req.target = "/statusz";
  auto statusz = net::http_fetch(nodes_[0]->admin_port(), req);
  ASSERT_TRUE(statusz.has_value());
  auto doc = util::JsonValue::parse(statusz->body);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(net::statusz_samples(*doc, "sbroker_federation_ring_share").size(),
            1u);
  EXPECT_EQ(
      net::statusz_samples(*doc, "sbroker_federation_forwards_sent_total").size(),
      1u);
  EXPECT_EQ(net::statusz_samples(*doc, "sbroker_federation_peer_info").size(),
            kNodes);

  req.target = "/metrics";
  auto metrics = net::http_fetch(nodes_[0]->admin_port(), req);
  ASSERT_TRUE(metrics.has_value());
  EXPECT_NE(metrics->body.find("sbroker_federation_ring_share"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("sbroker_federation_forwards_sent_total"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("sbroker_federation_peer_connected"),
            std::string::npos);
}

}  // namespace
}  // namespace sbroker::fed
