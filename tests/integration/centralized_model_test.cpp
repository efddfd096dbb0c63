// Centralized deployment model, end to end in the simulator (paper
// Figure 4): brokers report load to the Web server's listener; the Web
// server checks each URL's resource profile before handling, aborting
// requests whose backends are over the requester's QoS bound.
#include <gtest/gtest.h>

#include <vector>

#include "core/centralized.h"
#include "core/cluster.h"
#include "db/dataset.h"
#include "srv/broker_host.h"
#include "srv/db_backend.h"

namespace sbroker {
namespace {

class CentralizedModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Rng rng(9);
    db::load_benchmark_table(db_, rng, 500, 10);
    backend_ = std::make_shared<srv::SimDbBackend>(sim_, db_, srv::DbBackendConfig{});

    core::BrokerConfig broker_cfg;
    // In the centralized model the *web server* does admission; the broker
    // forwards everything it is given.
    broker_cfg.rules = core::QosRules{3, 1e9};
    broker_cfg.enable_cache = false;
    host_ = std::make_unique<srv::BrokerHost>(sim_, "db-broker", broker_cfg);
    host_->broker().add_backend(backend_);

    controller_ = std::make_unique<core::CentralizedController>(
        core::QosRules{3, 6.0}, /*staleness=*/0.0);
    controller_->register_profile("/app", core::ResourceProfile{{"db"}});

    // Listener: the broker reports its outstanding count every 10 ms. The
    // recursive reschedule goes through the fixture member so the closure
    // does not have to own itself.
    report_ = [this]() {
      controller_->on_load_report(
          "db", static_cast<double>(host_->broker().outstanding()), sim_.now());
      if (sim_.now() < 60.0) sim_.after(0.01, report_);
    };
    sim_.after(0.0, report_);
  }

  /// Front-door handling: admission first, then the broker.
  void handle_payload(uint64_t id, int level, std::string payload,
                      std::function<void(bool served)> done) {
    auto verdict = controller_->admit("/app", level, sim_.now());
    if (verdict != core::CentralizedController::Verdict::kAdmit) {
      // "the request is aborted before any real processing starts".
      done(false);
      return;
    }
    http::BrokerRequest req;
    req.request_id = id;
    req.qos_level = static_cast<uint8_t>(level);
    req.payload = std::move(payload);
    host_->submit(req, [done](const http::BrokerReply& reply) {
      done(reply.fidelity == http::Fidelity::kFull);
    });
  }

  void handle(uint64_t id, int level, std::function<void(bool served)> done) {
    handle_payload(id, level,
                   "SELECT id FROM records WHERE id = " + std::to_string(id % 500),
                   std::move(done));
  }

  /// A deliberately slow request (~0.3 s of backend work: a 600-statement
  /// batch) to hold load up long enough for listener reports to observe it.
  void handle_slow(uint64_t id, int level) {
    handle_payload(id, level,
                   core::ClusterEngine::join_payloads(std::vector<std::string>(
                       600, "SELECT id FROM records WHERE id = 1")),
                   [](bool) {});
  }

  sim::Simulation sim_;
  db::Database db_;
  std::shared_ptr<srv::SimDbBackend> backend_;
  std::unique_ptr<srv::BrokerHost> host_;
  std::unique_ptr<core::CentralizedController> controller_;
  std::function<void()> report_;
};

TEST_F(CentralizedModelTest, AdmitsWhenIdle) {
  bool served = false;
  sim_.after(0.1, [&]() { handle(1, 1, [&](bool ok) { served = ok; }); });
  sim_.run_until(5.0);
  EXPECT_TRUE(served);
  EXPECT_EQ(controller_->admits(), 1u);
}

TEST_F(CentralizedModelTest, AbortsLowClassUnderReportedLoad) {
  // Flood with class-3 work to raise the broker's outstanding count, then
  // probe with a class-1 request after the next load report.
  sim_.after(0.1, [&]() {
    for (uint64_t i = 0; i < 10; ++i) {
      handle_slow(100 + i, 3);
    }
  });
  int low_served = -1;
  sim_.after(0.125, [&]() {  // after at least one report at high load
    handle(200, 1, [&](bool ok) { low_served = ok ? 1 : 0; });
  });
  sim_.run_until(10.0);
  EXPECT_EQ(low_served, 0);  // aborted up front
  EXPECT_GT(controller_->rejects(), 0u);
}

TEST_F(CentralizedModelTest, HighClassStillAdmittedUnderSameLoad) {
  sim_.after(0.1, [&]() {
    for (uint64_t i = 0; i < 5; ++i) {
      handle_slow(100 + i, 3);
    }
  });
  int high_served = -1;
  sim_.after(0.125, [&]() {
    handle(300, 3, [&](bool ok) { high_served = ok ? 1 : 0; });
  });
  sim_.run_until(10.0);
  EXPECT_EQ(high_served, 1);  // class-3 bound (6.0) tolerates 5 outstanding
}

TEST_F(CentralizedModelTest, RecoversWhenLoadDrains) {
  sim_.after(0.1, [&]() {
    for (uint64_t i = 0; i < 10; ++i) {
      handle_slow(100 + i, 3);
    }
  });
  int served_during = -1, served_after = -1;
  sim_.after(0.125, [&]() { handle(201, 1, [&](bool ok) { served_during = ok; }); });
  // Long after the burst drained (and reports said so), class 1 flows again.
  sim_.after(30.0, [&]() { handle(202, 1, [&](bool ok) { served_after = ok; }); });
  sim_.run_until(60.0);
  EXPECT_EQ(served_during, 0);
  EXPECT_EQ(served_after, 1);
}

TEST_F(CentralizedModelTest, ListenerProcessedManyReports) {
  sim_.run_until(60.0);
  // 10 ms cadence over 60 s.
  EXPECT_GE(controller_->reports_processed(), 5900u);
}

}  // namespace
}  // namespace sbroker
