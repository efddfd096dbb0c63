// End-to-end simulated testbeds: client population -> broker -> backend,
// exercising the full stack the benches rely on.
#include <gtest/gtest.h>

#include "db/dataset.h"
#include "srv/broker_host.h"
#include "srv/cgi_backend.h"
#include "srv/db_backend.h"
#include "wl/ab_client.h"
#include "wl/query_gen.h"
#include "wl/webstone_client.h"

namespace sbroker {
namespace {

// Full pipeline: ab -> broker -> DB backend.
TEST(SimEndToEnd, AbThroughBrokerToDatabase) {
  sim::Simulation sim;
  db::Database db;
  util::Rng rng(1);
  db::load_benchmark_table(db, rng, 2000, 10);

  srv::DbBackendConfig backend_cfg;
  backend_cfg.capacity = 5;
  auto backend = std::make_shared<srv::SimDbBackend>(sim, db, backend_cfg);

  core::BrokerConfig broker_cfg;
  broker_cfg.rules = core::QosRules{3, 100.0};
  srv::BrokerHost host(sim, "db-broker", broker_cfg);
  host.broker().add_backend(backend);

  wl::QueryGenerator gen(2000);
  util::Rng query_rng(2);
  uint64_t next_id = 1;
  uint64_t replies = 0;

  wl::AbClient client(sim, wl::AbConfig{20, 100},
                      [&](uint64_t, std::function<void()> done) {
                        http::BrokerRequest req;
                        req.request_id = next_id++;
                        req.qos_level = 2;
                        req.payload = gen.next_point_query(query_rng);
                        host.submit(req, [&, done](const http::BrokerReply&) {
                          ++replies;
                          done();
                        });
                      });
  client.start();
  sim.run();

  EXPECT_TRUE(client.finished());
  EXPECT_EQ(replies, 100u);
  EXPECT_EQ(host.broker().metrics().total().completed, 100u);
  EXPECT_EQ(host.broker().outstanding(), 0u);
  EXPECT_GT(client.response_times().mean_seconds(), 0.0);
}

// Clustering through the full stack conserves requests and answers everyone.
TEST(SimEndToEnd, ClusteredPipelineConservesRequests) {
  sim::Simulation sim;
  db::Database db;
  util::Rng rng(1);
  db::load_benchmark_table(db, rng, 1000, 10);

  auto backend =
      std::make_shared<srv::SimDbBackend>(sim, db, srv::DbBackendConfig{});
  core::BrokerConfig broker_cfg;
  broker_cfg.rules = core::QosRules{3, 1e9};
  broker_cfg.enable_cache = false;  // every reply must come from the backend
  broker_cfg.cluster = core::ClusterConfig{7, 0.02};
  srv::BrokerHost host(sim, "db-broker", broker_cfg);
  host.broker().add_backend(backend);

  wl::QueryGenerator gen(1000);
  util::Rng query_rng(3);
  uint64_t next_id = 1;
  uint64_t full_replies = 0;

  wl::AbClient client(sim, wl::AbConfig{25, 200},
                      [&](uint64_t, std::function<void()> done) {
                        http::BrokerRequest req;
                        req.request_id = next_id++;
                        req.qos_level = 2;
                        req.payload = gen.next_point_query(query_rng);
                        host.submit(req, [&, done](const http::BrokerReply& reply) {
                          if (reply.fidelity == http::Fidelity::kFull) ++full_replies;
                          // Every reply's payload must be a single result set
                          // (the broker split the batch).
                          EXPECT_EQ(reply.payload.find('\x1e'), std::string::npos);
                          done();
                        });
                      });
  client.start();
  sim.run();

  EXPECT_TRUE(client.finished());
  EXPECT_EQ(full_replies, 200u);
  // Batching really happened: far fewer backend calls than requests.
  EXPECT_LT(backend->calls(), 100u);
}

// Differentiation ordering holds end to end: across a load sweep, lower
// classes never achieve a *higher* forwarded fraction than higher classes.
class DifferentiationSweep : public ::testing::TestWithParam<int> {};

TEST_P(DifferentiationSweep, ForwardRatioOrderedByClass) {
  int clients_per_class = GetParam();
  sim::Simulation sim;
  srv::CgiBackendConfig backend_cfg;
  backend_cfg.processing_time = 1.0;
  backend_cfg.capacity = 5;
  auto backend = std::make_shared<srv::SimCgiBackend>(sim, "b", backend_cfg);

  core::BrokerConfig broker_cfg;
  broker_cfg.rules = core::QosRules{3, 20.0};
  broker_cfg.enable_cache = false;
  broker_cfg.serve_stale_on_drop = false;
  srv::BrokerHost host(sim, "broker", broker_cfg);
  host.broker().add_backend(backend);

  uint64_t next_id = 1;
  std::vector<std::unique_ptr<wl::WebStoneClients>> populations;
  for (int level = 1; level <= 3; ++level) {
    wl::WebStoneConfig wcfg;
    wcfg.clients = static_cast<size_t>(clients_per_class);
    wcfg.qos_level = level;
    wcfg.duration = 60.0;
    wcfg.think_time = 0.2;
    wcfg.rng_seed = 40 + static_cast<uint64_t>(level);
    populations.push_back(std::make_unique<wl::WebStoneClients>(
        sim, wcfg, [&, level](int, std::function<void()> done) {
          http::BrokerRequest req;
          req.request_id = next_id++;
          req.qos_level = static_cast<uint8_t>(level);
          req.payload = "/task";
          host.submit(req, [done](const http::BrokerReply&) { done(); });
        }));
  }
  for (auto& p : populations) p->start();
  sim.run();

  const core::BrokerMetrics& m = host.broker().metrics();
  auto forward_ratio = [&](int level) {
    const auto& c = m.at(level);
    return c.issued == 0 ? 1.0
                         : static_cast<double>(c.forwarded) / static_cast<double>(c.issued);
  };
  EXPECT_LE(forward_ratio(1), forward_ratio(2) + 1e-9);
  EXPECT_LE(forward_ratio(2), forward_ratio(3) + 1e-9);
  // Conservation per class.
  for (int level = 1; level <= 3; ++level) {
    const auto& c = m.at(level);
    EXPECT_EQ(c.forwarded + c.dropped + c.cache_hits + c.errors, c.issued);
  }
}

INSTANTIATE_TEST_SUITE_P(Loads, DifferentiationSweep, ::testing::Values(2, 5, 10, 20));

// Determinism: identical seeds give bit-identical aggregate results.
TEST(SimEndToEnd, DeterministicBySeed) {
  auto run = [](uint64_t seed) {
    sim::Simulation sim;
    db::Database db;
    util::Rng rng(seed);
    db::load_benchmark_table(db, rng, 500, 10);
    auto backend =
        std::make_shared<srv::SimDbBackend>(sim, db, srv::DbBackendConfig{});
    core::BrokerConfig broker_cfg;
    broker_cfg.rules = core::QosRules{3, 10.0};
    srv::BrokerHost host(sim, "b", broker_cfg);
    host.broker().add_backend(backend);
    util::Rng query_rng(seed + 1);
    uint64_t next_id = 1;
    wl::AbClient client(sim, wl::AbConfig{10, 80},
                        [&](uint64_t, std::function<void()> done) {
                          http::BrokerRequest req;
                          req.request_id = next_id++;
                          req.qos_level = static_cast<uint8_t>(1 + next_id % 3);
                          // Scan whose result-set size (and therefore service
                          // time) depends on the seeded random threshold.
                          req.payload = "SELECT id FROM records WHERE score < " +
                                        std::to_string(query_rng.next_double());
                          host.submit(req, [done](const http::BrokerReply&) { done(); });
                        });
    client.start();
    sim.run();
    return std::make_tuple(client.response_times().mean_seconds(),
                           host.broker().metrics().total().dropped,
                           host.broker().metrics().total().forwarded);
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(std::get<0>(run(7)), std::get<0>(run(8)));
}

}  // namespace
}  // namespace sbroker
