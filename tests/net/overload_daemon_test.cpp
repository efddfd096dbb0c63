// Overload control on the live reactor substrate: a ShardedBrokerDaemon
// with a saturated serial backend must run the feedback loop on its shard
// tick path — AIMD pulls the effective threshold down from a mistuned
// constant, static+lifo flips the wait queues and sheds through the
// exactly-once deadline path — and the admin plane must expose all of it.
#include "core/overload.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/admin.h"
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

/// One serial (capacity-1) backend replica at ~20ms per request: requests
/// queue behind a busy-until cursor, so the daemon's dispatch queue is the
/// real bottleneck and deadline sheds are plentiful.
class OverloadDaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto busy_until = std::make_shared<double>(0.0);
    backend_server_ = std::make_unique<HttpServer>(
        backend_reactor_, 0,
        [this, busy_until](const http::Request& req,
                           HttpServer::Responder respond) {
          http::Response resp = http::make_response(200, "ok " + req.target);
          double now = std::chrono::duration<double>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count();
          double begin = std::max(now, *busy_until);
          *busy_until = begin + 0.020;
          backend_reactor_.add_timer(*busy_until - now,
                                     [respond, resp]() { respond(resp); });
        });
    backend_thread_ = std::thread([this] { backend_reactor_.run(); });
  }

  void TearDown() override {
    backend_reactor_.stop();
    backend_thread_.join();
  }

  std::unique_ptr<ShardedBrokerDaemon> make_daemon(
      const core::OverloadConfig& overload) {
    ShardedBrokerDaemonConfig cfg;
    // Deliberately mistuned static threshold: far more backlog than a
    // 100ms deadline over a 20ms-per-request serial backend can drain.
    cfg.broker.rules = core::QosRules{3, 150.0};
    cfg.broker.enable_cache = false;
    cfg.broker.dispatch_window = 2;
    cfg.broker.overload = overload;
    cfg.shards = 1;
    cfg.enable_udp = false;
    cfg.tick_interval = 0.005;
    auto daemon = std::make_unique<ShardedBrokerDaemon>("overload-test", cfg);
    uint16_t port = backend_server_->port();
    daemon->add_backend([port](Reactor& reactor, size_t) {
      return std::make_shared<PipelinedBackend>(reactor, port);
    });
    daemon->start();
    return daemon;
  }

  /// Closed-loop hammer: `threads` connections submitting back-to-back
  /// 100ms-deadline requests for `seconds`. Joining the threads implies
  /// every submitted request was answered.
  static void drive(ShardedBrokerDaemon& daemon, int threads, double seconds) {
    std::atomic<bool> stop{false};
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&daemon, &stop, t]() {
        FrameClient client(daemon.port());
        uint64_t id = static_cast<uint64_t>(t) << 32;
        while (!stop.load(std::memory_order_relaxed)) {
          uint64_t rid = ++id;
          auto reply = client.call(rid, "/k" + std::to_string(rid % 64),
                                   static_cast<uint8_t>(1 + rid % 3),
                                   /*deadline_ms=*/100);
          if (!reply.has_value()) break;
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true, std::memory_order_relaxed);
    for (auto& w : workers) w.join();
  }

  static core::BrokerMetrics::ClassCounters fold(ShardedBrokerDaemon& daemon,
                                                 core::BrokerMetrics& out) {
    out = daemon.aggregate_metrics();
    return out.total();
  }

  Reactor backend_reactor_;
  std::unique_ptr<HttpServer> backend_server_;
  std::thread backend_thread_;
};

TEST_F(OverloadDaemonTest, AimdPullsTheThresholdDownOnTheTickPath) {
  core::OverloadConfig overload;
  overload.policy = core::OverloadPolicy::kAimd;
  overload.eval_interval = 0.05;
  auto daemon = make_daemon(overload);
  drive(*daemon, 24, 1.0);

  core::BrokerMetrics metrics;
  core::BrokerMetrics::ClassCounters total = fold(*daemon, metrics);
  // Conservation first: the refactor must not leak or double-count.
  EXPECT_EQ(total.completed, total.issued);
  EXPECT_EQ(total.forwarded + total.dropped + total.cache_hits + total.errors,
            total.issued);
  // The feedback loop ran on the shard reactor and cut the mistuned
  // threshold (every interval breaches: queue waits dwarf the 50ms target).
  EXPECT_GT(metrics.overload.evals, 0u);
  EXPECT_GT(metrics.overload.decreases, 0u);
  std::vector<ShardStatus> status = daemon->shard_status();
  ASSERT_EQ(status.size(), 1u);
  EXPECT_STREQ(status[0].overload_policy, "aimd");
  EXPECT_LT(status[0].admission_threshold, 150.0);

  // The admin plane must expose the live controller state.
  auto metrics_page = admin_get(daemon->admin_port(), "/metrics");
  ASSERT_TRUE(metrics_page.has_value());
  EXPECT_NE(metrics_page->body.find("sbroker_admission_threshold"),
            std::string::npos);
  EXPECT_NE(metrics_page->body.find("sbroker_overload_mode"),
            std::string::npos);
  EXPECT_NE(metrics_page->body.find("sbroker_overload_evals_total"),
            std::string::npos);
  daemon->stop();
}

TEST_F(OverloadDaemonTest, StaticLifoShedsThroughTheDeadlinePath) {
  core::OverloadConfig overload;
  overload.policy = core::OverloadPolicy::kStatic;
  overload.lifo = true;
  overload.eval_interval = 0.05;
  auto daemon = make_daemon(overload);
  drive(*daemon, 24, 1.0);

  core::BrokerMetrics metrics;
  core::BrokerMetrics::ClassCounters total = fold(*daemon, metrics);
  EXPECT_EQ(total.completed, total.issued);
  EXPECT_EQ(total.forwarded + total.dropped + total.cache_hits + total.errors,
            total.issued);
  // Static threshold never moves, but the mode tracking still runs...
  std::vector<ShardStatus> status = daemon->shard_status();
  ASSERT_EQ(status.size(), 1u);
  EXPECT_STREQ(status[0].overload_policy, "static");
  EXPECT_DOUBLE_EQ(status[0].admission_threshold, 150.0);
  EXPECT_GT(metrics.overload.enters, 0u);
  // ...and while it was on, the aged-out entries left through the
  // exactly-once deadline-expiry path, tagged as LIFO-mode sheds.
  EXPECT_GT(total.lifo_sheds, 0u);
  EXPECT_LE(total.lifo_sheds, total.deadline_misses);

  // /statusz carries the per-class shed split and the controller view.
  auto statusz = admin_get(daemon->admin_port(), "/statusz");
  ASSERT_TRUE(statusz.has_value());
  std::optional<util::JsonValue> doc = util::JsonValue::parse(statusz->body);
  ASSERT_TRUE(doc.has_value());
  auto enters = statusz_samples(*doc, "sbroker_overload_enters_total");
  ASSERT_EQ(enters.size(), 1u);
  EXPECT_GE((*enters[0])["value"].as_int(), 1);
  auto info = statusz_samples(*doc, "sbroker_shard_info");
  ASSERT_EQ(info.size(), 1u);
  EXPECT_EQ((*info[0])["labels"]["overload_policy"].as_string(), "static");
  auto threshold = statusz_samples(*doc, "sbroker_admission_threshold");
  ASSERT_EQ(threshold.size(), 1u);
  EXPECT_DOUBLE_EQ((*threshold[0])["value"].as_double(), 150.0);
  uint64_t lifo_sheds = 0;
  for (const util::JsonValue* cls :
       statusz_samples(*doc, "sbroker_lifo_sheds_total")) {
    lifo_sheds += static_cast<uint64_t>((*cls)["value"].as_int());
  }
  EXPECT_EQ(lifo_sheds, total.lifo_sheds);
  daemon->stop();
}

}  // namespace
}  // namespace sbroker::net
