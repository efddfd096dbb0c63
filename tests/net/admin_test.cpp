// Admin plane integration: /healthz, /metrics, /statusz, /tracez served by
// a live ShardedBrokerDaemon, with the scraped numbers agreeing with the
// traffic the test actually generated.
#include "net/admin.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/http_client.h"
#include "net/http_server.h"
#include "net/pipelined_backend.h"
#include "net/sharded_daemon.h"
#include "util/json.h"

namespace sbroker::net {
namespace {

std::optional<http::Response> admin_get(uint16_t port, std::string target) {
  http::Request req;
  req.method = "GET";
  req.target = std::move(target);
  req.headers.set("Host", "localhost");
  return http_fetch(port, req);
}

class AdminPlaneTest : public ::testing::Test {
 protected:
  void SetUp() override {
    backend_server_ = std::make_unique<HttpServer>(
        backend_reactor_, 0,
        [](const http::Request& req, HttpServer::Responder respond) {
          respond(http::make_response(200, "content of " + req.target));
        });
    backend_thread_ = std::thread([this] { backend_reactor_.run(); });
  }

  void TearDown() override {
    backend_reactor_.stop();
    backend_thread_.join();
  }

  std::unique_ptr<ShardedBrokerDaemon> make_daemon(size_t shards,
                                                   bool admin_enabled = true) {
    ShardedBrokerDaemonConfig cfg;
    cfg.broker.rules = core::QosRules{3, 50.0};
    cfg.broker.enable_cache = true;
    cfg.broker.cache_ttl = 30.0;
    cfg.shards = shards;
    cfg.enable_udp = false;
    cfg.tick_interval = 0.005;
    cfg.admin.enabled = admin_enabled;
    auto daemon = std::make_unique<ShardedBrokerDaemon>("admin-test", cfg);
    uint16_t port = backend_server_->port();
    daemon->add_backend([port](Reactor& reactor, size_t) {
      return std::make_shared<PipelinedBackend>(reactor, port);
    });
    daemon->start();
    return daemon;
  }

  /// Issues `n` distinct class-cycling requests over one connection.
  static void drive(ShardedBrokerDaemon& daemon, int n, uint64_t base = 0) {
    FrameClient client(daemon.port());
    for (int i = 0; i < n; ++i) {
      uint64_t id = base + static_cast<uint64_t>(i);
      auto reply =
          client.call(id, "/a" + std::to_string(id), 1 + i % 3);
      ASSERT_TRUE(reply.has_value()) << "request " << id;
    }
  }

  Reactor backend_reactor_;
  std::unique_ptr<HttpServer> backend_server_;
  std::thread backend_thread_;
};

TEST_F(AdminPlaneTest, HealthzAnswersAndUnknownRouteIs404) {
  auto daemon = make_daemon(2);
  ASSERT_NE(daemon->admin_port(), 0);

  auto health = admin_get(daemon->admin_port(), "/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 200);
  EXPECT_EQ(health->body, "ok\n");

  auto missing = admin_get(daemon->admin_port(), "/no-such-page");
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->status, 404);
  daemon->stop();
}

TEST_F(AdminPlaneTest, MetricsExposesCounterFamiliesAndHistogram) {
  auto daemon = make_daemon(2);
  drive(*daemon, 12);

  auto metrics = admin_get(daemon->admin_port(), "/metrics");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics->status, 200);
  EXPECT_NE(metrics->headers.get("Content-Type").value_or("").find("text/plain"),
            std::string::npos);
  const std::string& body = metrics->body;
  for (const char* needle :
       {"# TYPE sbroker_requests_total counter", "sbroker_completed_total",
        "sbroker_dropped_total", "class=\"3\"", "sbroker_shards 2",
        "# TYPE sbroker_latency_seconds histogram",
        "sbroker_latency_seconds_bucket", "le=\"+Inf\"",
        "stage=\"total\"", "sbroker_shard_load_state",
        "sbroker_replica_outstanding"}) {
    EXPECT_NE(body.find(needle), std::string::npos) << "missing: " << needle;
  }
  daemon->stop();
}

TEST_F(AdminPlaneTest, StatuszCountsMatchTraffic) {
  auto daemon = make_daemon(2);
  drive(*daemon, 15);  // classes cycle 1,2,3 -> 5 requests per class

  auto statusz = admin_get(daemon->admin_port(), "/statusz");
  ASSERT_TRUE(statusz.has_value());
  EXPECT_EQ(statusz->status, 200);
  auto doc = util::JsonValue::parse(statusz->body);
  ASSERT_TRUE(doc.has_value());

  EXPECT_EQ((*doc)["shards"].as_int(), 2);
  // All 15 answered before the scrape: one kTotal sample each, summed
  // across shards by the renderer.
  EXPECT_EQ((*doc)["stages"]["total"]["count"].as_int(), 15);
  EXPECT_GT((*doc)["stages"]["total"]["p50"].as_double(), 0.0);

  const util::JsonValue& classes = (*doc)["classes"];
  ASSERT_EQ(classes.size(), 3u);
  int64_t issued = 0;
  for (const util::JsonValue& cls : classes.items()) {
    EXPECT_EQ(cls["issued"].as_int(), 5);
    EXPECT_EQ(cls["latency"]["total"]["count"].as_int(), 5);
    issued += cls["issued"].as_int();
  }
  EXPECT_EQ(issued, 15);

  const util::JsonValue& per_shard = (*doc)["per_shard"];
  ASSERT_EQ(per_shard.size(), 2u);
  uint64_t traced = 0;
  for (const util::JsonValue& s : per_shard.items()) {
    traced += static_cast<uint64_t>(s["trace_recorded"].as_int());
    ASSERT_EQ(s["replicas"].size(), 1u);
    EXPECT_FALSE(s["replicas"].at(0)["ejected"].as_bool(true));
  }
  EXPECT_GT(traced, 0u);
  daemon->stop();
}

TEST_F(AdminPlaneTest, TracezIsTimeOrderedAndConserved) {
  auto daemon = make_daemon(2);
  drive(*daemon, 10);

  auto tracez = admin_get(daemon->admin_port(), "/tracez");
  ASSERT_TRUE(tracez.has_value());
  EXPECT_EQ(tracez->status, 200);
  EXPECT_NE(
      tracez->headers.get("Content-Type").value_or("").find("application/json"),
      std::string::npos);
  auto doc = util::JsonValue::parse(tracez->body);
  ASSERT_TRUE(doc.has_value());

  const util::JsonValue& events = (*doc)["events"];
  ASSERT_EQ((*doc)["events_retained"].as_int(),
            static_cast<int64_t>(events.size()));
  ASSERT_GT(events.size(), 0u);
  int admits = 0, terminals = 0;
  double prev_t = 0.0;
  for (const util::JsonValue& e : events.items()) {
    double t = e["t"].as_double();
    EXPECT_GE(t, prev_t);  // merged dump is sorted by time
    prev_t = t;
    const std::string& kind = e["event"].as_string();
    if (kind == "admit") ++admits;
    if (kind == "complete" || kind == "drop" || kind == "deadline" ||
        kind == "cache_hit") {
      ++terminals;
    }
  }
  // Every request was answered while tracing: terminals == requests, and
  // every non-cached answer was admitted first.
  EXPECT_EQ(terminals, 10);
  EXPECT_EQ(admits, 10);  // distinct targets -> no cache hits
  daemon->stop();
}

TEST_F(AdminPlaneTest, DisabledAdminPlaneBindsNoPort) {
  auto daemon = make_daemon(1, /*admin_enabled=*/false);
  EXPECT_EQ(daemon->admin_port(), 0);
  FrameClient client(daemon->port());
  auto reply = client.call(1, "/still-works", 3);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->payload, "content of /still-works");
  daemon->stop();
}

TEST_F(AdminPlaneTest, ShardStatusReadableAfterStop) {
  auto daemon = make_daemon(2);
  drive(*daemon, 6);
  daemon->stop();  // admin thread joined; snapshots switch to the direct path

  std::vector<ShardStatus> shards = daemon->shard_status();
  ASSERT_EQ(shards.size(), 2u);
  uint64_t issued = 0, total_samples = 0;
  for (const ShardStatus& s : shards) {
    issued += s.metrics.total().issued;
    total_samples += s.obs.merged_histogram(obs::Stage::kTotal).count();
  }
  EXPECT_EQ(issued, 6u);
  EXPECT_EQ(total_samples, 6u);

  // The renderers work on the offline snapshot too.
  std::string prom = render_prometheus(shards);
  EXPECT_NE(prom.find("sbroker_requests_total"), std::string::npos);
  auto doc = util::JsonValue::parse(render_statusz(shards));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ((*doc)["stages"]["total"]["count"].as_int(), 6);
}

}  // namespace
}  // namespace sbroker::net
