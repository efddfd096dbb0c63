#include "srv/broker_host.h"

#include <gtest/gtest.h>

#include "db/dataset.h"
#include "srv/db_backend.h"

namespace sbroker::srv {
namespace {

class BrokerHostTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Rng rng(3);
    db::load_benchmark_table(db_, rng, 500, 10);
    backend_ = std::make_shared<SimDbBackend>(sim_, db_, DbBackendConfig{});
  }

  core::BrokerConfig config() {
    core::BrokerConfig cfg;
    cfg.rules = core::QosRules{3, 20.0};
    cfg.enable_cache = false;
    return cfg;
  }

  http::BrokerRequest request(uint64_t id, int level, std::string payload) {
    http::BrokerRequest req;
    req.request_id = id;
    req.qos_level = static_cast<uint8_t>(level);
    req.payload = std::move(payload);
    return req;
  }

  sim::Simulation sim_;
  db::Database db_;
  std::shared_ptr<SimDbBackend> backend_;
};

TEST_F(BrokerHostTest, EndToEndQueryThroughHost) {
  BrokerHost host(sim_, "db-broker", config());
  host.broker().add_backend(backend_);
  std::optional<http::BrokerReply> reply;
  host.submit(request(1, 3, "SELECT id FROM records WHERE id = 9"),
              [&](const http::BrokerReply& r) { reply = r; });
  sim_.run();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->fidelity, http::Fidelity::kFull);
  EXPECT_EQ(reply->payload, "id\n9\n");
}

TEST_F(BrokerHostTest, IpcLatencyAppearsInResponseTime) {
  sim::Link::Params slow_ipc;
  slow_ipc.latency = 0.25;
  BrokerHost host(sim_, "db-broker", config(), slow_ipc);
  host.broker().add_backend(backend_);
  double replied_at = -1;
  host.submit(request(1, 3, "SELECT id FROM records WHERE id = 1"),
              [&](const http::BrokerReply&) { replied_at = sim_.now(); });
  sim_.run();
  EXPECT_GE(replied_at, 0.5);  // 0.25 each way
}

TEST_F(BrokerHostTest, ClusterDeadlineFiresWithoutExtraTraffic) {
  core::BrokerConfig cfg = config();
  cfg.cluster = core::ClusterConfig{8, 0.05};
  BrokerHost host(sim_, "db-broker", cfg);
  host.broker().add_backend(backend_);
  std::optional<http::BrokerReply> reply;
  host.submit(request(1, 3, "SELECT id FROM records WHERE id = 2"),
              [&](const http::BrokerReply& r) { reply = r; });
  sim_.run();  // the host's timer must flush the partial batch
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->fidelity, http::Fidelity::kFull);
}

TEST_F(BrokerHostTest, PrefetchRunsFromKick) {
  core::BrokerConfig cfg = config();
  cfg.enable_cache = true;
  cfg.cache_ttl = 1000.0;
  BrokerHost host(sim_, "db-broker", cfg);
  host.broker().add_backend(backend_);
  host.broker().prefetcher().add("SELECT id FROM records WHERE id = 4", 30.0);
  host.kick();
  sim_.run_until(1.0);
  std::optional<http::BrokerReply> reply;
  host.submit(request(1, 2, "SELECT id FROM records WHERE id = 4"),
              [&](const http::BrokerReply& r) { reply = r; });
  // run_until, not run(): the periodic prefetch timer keeps the event queue
  // non-empty forever.
  sim_.run_until(2.0);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->fidelity, http::Fidelity::kCached);
  EXPECT_EQ(reply->payload, "id\n4\n");
}

// Overload control on the sim substrate: an open-loop flash crowd (400/s
// against a serial ~33/s backend) must drive the AIMD loop on the host's
// tick path — the effective threshold drops below the configured constant,
// the LIFO flip engages, and the aged-out entries leave through the
// exactly-once deadline path. The sim must still drain to completion (the
// eval cadence may not keep the event queue alive forever).
TEST_F(BrokerHostTest, AimdLifoRunsOnTheSimTickPath) {
  core::BrokerConfig cfg = config();
  cfg.dispatch_window = 1;
  cfg.overload.policy = core::OverloadPolicy::kAimd;
  cfg.overload.lifo = true;
  cfg.overload.eval_interval = 0.05;
  DbBackendConfig slow;
  slow.capacity = 1;
  slow.profile.base = 0.03;
  auto backend = std::make_shared<SimDbBackend>(sim_, db_, slow);
  BrokerHost host(sim_, "db-broker", cfg);
  host.broker().add_backend(backend);

  constexpr int kRequests = 800;
  int replies = 0;
  for (int i = 0; i < kRequests; ++i) {
    sim_.at(i * 0.0025, [this, &host, &replies, i]() {
      http::BrokerRequest req =
          request(static_cast<uint64_t>(i + 1), 1 + (i % 3),
                  "SELECT id FROM records WHERE id = " + std::to_string(i % 50));
      req.deadline_ms = 100;
      host.submit(std::move(req),
                  [&replies](const http::BrokerReply&) { ++replies; });
    });
  }
  sim_.run();  // must terminate: feedback cadence folds into pending work only

  EXPECT_EQ(replies, kRequests);
  core::BrokerMetrics metrics = host.broker().metrics();
  core::BrokerMetrics::ClassCounters total = metrics.total();
  EXPECT_EQ(total.issued, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(total.completed, total.issued);
  EXPECT_EQ(total.forwarded + total.dropped + total.cache_hits + total.errors,
            total.issued);
  // The feedback loop ran and cut the threshold below the static setting.
  EXPECT_GT(metrics.overload.evals, 0u);
  EXPECT_GT(metrics.overload.decreases, 0u);
  EXPECT_LT(host.broker().overload_control().threshold(), cfg.rules.threshold);
  // LIFO mode engaged and its sheds took the exactly-once deadline path.
  EXPECT_GT(metrics.overload.enters, 0u);
  EXPECT_GT(total.lifo_sheds, 0u);
  EXPECT_LE(total.lifo_sheds, total.deadline_misses);
}

// The same crowd at half the rate (200/s, 2 s): the admitted backlog, and with
// it the fresh samples per 50 ms interval, stays below kMinSamples. A thin
// interval must not be judged, but its samples must count toward the next
// one, so the loop still evaluates and walks the threshold down.
TEST_F(BrokerHostTest, AimdEvaluatesWhenIntervalsAreThin) {
  core::BrokerConfig cfg = config();
  cfg.dispatch_window = 1;
  cfg.overload.policy = core::OverloadPolicy::kAimd;
  cfg.overload.lifo = true;
  cfg.overload.eval_interval = 0.05;
  DbBackendConfig slow;
  slow.capacity = 1;
  slow.profile.base = 0.03;
  auto backend = std::make_shared<SimDbBackend>(sim_, db_, slow);
  BrokerHost host(sim_, "db-broker", cfg);
  host.broker().add_backend(backend);

  constexpr int kRequests = 400;
  int replies = 0;
  for (int i = 0; i < kRequests; ++i) {
    sim_.at(i * 0.005, [this, &host, &replies, i]() {
      http::BrokerRequest req =
          request(static_cast<uint64_t>(i + 1), 1 + (i % 3),
                  "SELECT id FROM records WHERE id = " + std::to_string(i % 50));
      req.deadline_ms = 100;
      host.submit(std::move(req),
                  [&replies](const http::BrokerReply&) { ++replies; });
    });
  }
  sim_.run();

  EXPECT_EQ(replies, kRequests);
  core::BrokerMetrics metrics = host.broker().metrics();
  EXPECT_GT(metrics.overload.evals, 0u);
  EXPECT_GT(metrics.overload.decreases, 0u);
  EXPECT_LT(host.broker().overload_control().threshold(), cfg.rules.threshold);
}

TEST_F(BrokerHostTest, DownInboundLinkLosesRequestSilently) {
  BrokerHost host(sim_, "db-broker", config());
  host.broker().add_backend(backend_);
  host.inbound_link().set_down(true);
  bool replied = false;
  host.submit(request(1, 3, "SELECT id FROM records WHERE id = 1"),
              [&](const http::BrokerReply&) { replied = true; });
  sim_.run();
  EXPECT_FALSE(replied);  // UDP semantics: lost, no error channel
  EXPECT_EQ(host.broker().metrics().total().issued, 0u);
}

}  // namespace
}  // namespace sbroker::srv
