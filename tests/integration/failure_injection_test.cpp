// Failure injection across the stack: downed links, dying backends, and
// malformed traffic must degrade service, never hang or leak broker state.
#include <gtest/gtest.h>

#include "db/dataset.h"
#include "srv/broker_host.h"
#include "srv/cgi_backend.h"
#include "srv/db_backend.h"
#include "wl/ab_client.h"
#include "wl/query_gen.h"

namespace sbroker {
namespace {

struct Fixture {
  Fixture() : rng(5) {
    db::load_benchmark_table(db, rng, 500, 10);
    backend = std::make_shared<srv::SimDbBackend>(sim, db, srv::DbBackendConfig{});
    core::BrokerConfig cfg;
    cfg.rules = core::QosRules{3, 100.0};
    cfg.enable_cache = true;
    cfg.cache_ttl = 10.0;
    host = std::make_unique<srv::BrokerHost>(sim, "b", cfg);
    host->broker().add_backend(backend);
  }

  http::BrokerRequest request(uint64_t id, std::string payload) {
    http::BrokerRequest req;
    req.request_id = id;
    req.qos_level = 3;
    req.payload = std::move(payload);
    return req;
  }

  sim::Simulation sim;
  db::Database db;
  util::Rng rng;
  std::shared_ptr<srv::SimDbBackend> backend;
  std::unique_ptr<srv::BrokerHost> host;
};

TEST(FailureInjection, BackendLinkDownMidRunThenRecovery) {
  Fixture f;
  std::vector<http::Fidelity> outcomes;
  auto ask = [&](uint64_t id) {
    f.host->submit(f.request(id, "SELECT id FROM records WHERE id = " + std::to_string(id)),
                   [&](const http::BrokerReply& r) { outcomes.push_back(r.fidelity); });
  };

  ask(1);
  f.sim.run();
  f.backend->request_link().set_down(true);
  ask(2);
  f.sim.run();
  f.backend->request_link().set_down(false);
  ask(3);
  f.sim.run();

  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[0], http::Fidelity::kFull);
  EXPECT_EQ(outcomes[1], http::Fidelity::kError);
  EXPECT_EQ(outcomes[2], http::Fidelity::kFull);
  EXPECT_EQ(f.host->broker().outstanding(), 0u);  // nothing leaked
}

TEST(FailureInjection, OutstandingNeverLeaksAcrossManyFailures) {
  Fixture f;
  wl::QueryGenerator gen(500);
  util::Rng query_rng(9);
  uint64_t next_id = 1;
  uint64_t replies = 0;

  // Flap the link every 50 virtual milliseconds while traffic flows (the
  // whole run lasts well under a second of virtual time).
  for (int i = 1; i <= 20; ++i) {
    f.sim.at(0.05 * i, [&, i]() {
      f.backend->request_link().set_down(i % 2 == 1);
    });
  }

  wl::AbClient client(f.sim, wl::AbConfig{10, 150},
                      [&](uint64_t, std::function<void()> done) {
                        f.host->submit(f.request(next_id++, gen.next_point_query(query_rng)),
                                       [&, done](const http::BrokerReply&) {
                                         ++replies;
                                         done();
                                       });
                      });
  client.start();
  f.sim.run();

  EXPECT_EQ(replies, 150u);  // every request answered despite the flapping
  EXPECT_EQ(f.host->broker().outstanding(), 0u);
  auto total = f.host->broker().metrics().total();
  EXPECT_EQ(total.completed, 150u);
  EXPECT_GT(total.errors, 0u);  // some really did fail
}

TEST(FailureInjection, StaleCacheCoversBackendOutage) {
  Fixture f;
  // Warm the cache.
  http::Fidelity first = http::Fidelity::kError;
  f.host->submit(f.request(1, "SELECT id FROM records WHERE id = 7"),
                 [&](const http::BrokerReply& r) { first = r.fidelity; });
  f.sim.run();
  ASSERT_EQ(first, http::Fidelity::kFull);

  // Outage; the entry expires (TTL 10) but remains stale-servable. Saturate
  // admission so the drop path (stale allowed) triggers rather than forward.
  f.backend->request_link().set_down(true);
  core::BrokerConfig tight;
  // Reconfigure via a new host: threshold 0 forces drops for every class.
  tight.rules = core::QosRules{3, 0.0};
  tight.enable_cache = true;
  tight.cache_ttl = 0.001;
  srv::BrokerHost degraded(f.sim, "degraded", tight);
  degraded.broker().add_backend(f.backend);
  degraded.broker().cache().put("SELECT id FROM records WHERE id = 7", "id\n7\n", 0.0);

  http::BrokerReply reply;
  degraded.submit(f.request(2, "SELECT id FROM records WHERE id = 7"),
                  [&](const http::BrokerReply& r) { reply = r; });
  f.sim.run();
  EXPECT_EQ(reply.fidelity, http::Fidelity::kCached);
  EXPECT_EQ(reply.payload, "id\n7\n");
}

TEST(FailureInjection, MalformedQueryDoesNotPoisonBroker) {
  Fixture f;
  std::vector<http::Fidelity> outcomes;
  auto ask = [&](uint64_t id, std::string payload) {
    f.host->submit(f.request(id, std::move(payload)),
                   [&](const http::BrokerReply& r) { outcomes.push_back(r.fidelity); });
  };
  ask(1, "DELETE FROM records");            // unsupported statement
  f.sim.run();
  ask(2, "SELECT id FROM records WHERE id = 3");
  f.sim.run();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0], http::Fidelity::kError);
  EXPECT_EQ(outcomes[1], http::Fidelity::kFull);
}

TEST(FailureInjection, BatchedFailureAnswersEveryMember) {
  sim::Simulation sim;
  db::Database db;
  util::Rng rng(5);
  db::load_benchmark_table(db, rng, 100, 5);
  auto backend = std::make_shared<srv::SimDbBackend>(sim, db, srv::DbBackendConfig{});
  core::BrokerConfig cfg;
  cfg.rules = core::QosRules{3, 100.0};
  cfg.cluster = core::ClusterConfig{4, 0.05};
  srv::BrokerHost host(sim, "b", cfg);
  host.broker().add_backend(backend);
  backend->request_link().set_down(true);

  int errors = 0;
  for (uint64_t i = 1; i <= 4; ++i) {
    http::BrokerRequest req;
    req.request_id = i;
    req.qos_level = 2;
    req.payload = "SELECT id FROM records WHERE id = " + std::to_string(i);
    host.submit(req, [&](const http::BrokerReply& r) {
      if (r.fidelity == http::Fidelity::kError) ++errors;
    });
  }
  sim.run();
  EXPECT_EQ(errors, 4);
  EXPECT_EQ(host.broker().outstanding(), 0u);
}

TEST(FailureInjection, StalledBackendShedsEveryRequestOnDeadline) {
  // A stalled backend (consumes requests, never replies) is the half-open
  // failure a downed link cannot model: no completion ever comes. Deadlines
  // must answer every client, cancel tokens must resolve the stuck work, and
  // no broker state may leak.
  sim::Simulation sim;
  db::Database db;
  util::Rng rng(5);
  db::load_benchmark_table(db, rng, 100, 5);
  auto backend = std::make_shared<srv::SimDbBackend>(sim, db, srv::DbBackendConfig{});
  backend->set_stalled(true);

  core::BrokerConfig cfg;
  cfg.rules = core::QosRules{3, 100.0};
  cfg.enable_cache = true;
  cfg.cache_ttl = 10.0;
  cfg.lifecycle.default_deadline = 0.2;
  srv::BrokerHost host(sim, "b", cfg);
  host.broker().add_backend(backend);

  constexpr uint64_t kRequests = 10;
  std::vector<http::BrokerReply> replies;
  std::vector<double> reply_times;
  for (uint64_t i = 1; i <= kRequests; ++i) {
    http::BrokerRequest req;
    req.request_id = i;
    req.qos_level = 3;
    req.payload = "SELECT id FROM records WHERE id = " + std::to_string(i);
    host.submit(req, [&](const http::BrokerReply& r) {
      replies.push_back(r);
      reply_times.push_back(sim.now());
    });
  }
  sim.run();

  ASSERT_EQ(replies.size(), kRequests);
  for (size_t i = 0; i < replies.size(); ++i) {
    EXPECT_EQ(replies[i].fidelity, http::Fidelity::kBusy) << "request " << i;
    EXPECT_EQ(replies[i].payload, std::string(core::kDeadlineExceeded));
    // Answered at the deadline (one timer fire), not at some later tick.
    EXPECT_LE(reply_times[i], 0.2 + 0.05) << "request " << i;
  }
  EXPECT_EQ(host.broker().outstanding(), 0u);
  EXPECT_EQ(host.broker().load_tracker().outstanding(), 0);
  auto total = host.broker().metrics().total();
  EXPECT_EQ(total.completed, kRequests);
  EXPECT_EQ(total.deadline_misses, kRequests);
  EXPECT_EQ(total.forwarded + total.dropped + total.cache_hits + total.errors,
            total.issued);
  // Every stuck exchange was harvested and its token resolved the backend.
  EXPECT_EQ(host.broker().metrics().lifecycle.cancellations, kRequests);
  EXPECT_EQ(backend->stalls(), kRequests);
  EXPECT_EQ(backend->cancels(), kRequests);
  // The cancelled completions came back after the shed and were swallowed.
  EXPECT_EQ(host.broker().metrics().lifecycle.late_completions, kRequests);
}

TEST(FailureInjection, RetryFailsOverToHealthyReplicaAndEjects) {
  sim::Simulation sim;
  db::Database db;
  util::Rng rng(5);
  db::load_benchmark_table(db, rng, 100, 5);
  auto bad = std::make_shared<srv::SimDbBackend>(sim, db, srv::DbBackendConfig{});
  auto good = std::make_shared<srv::SimDbBackend>(sim, db, srv::DbBackendConfig{});
  bad->request_link().set_down(true);  // fail-fast replica failure

  core::BrokerConfig cfg;
  cfg.rules = core::QosRules{3, 100.0};
  cfg.enable_cache = false;
  cfg.lifecycle.max_attempts = 2;
  cfg.lifecycle.default_deadline = 2.0;
  cfg.health = core::HealthConfig{1, 60.0};  // eject on first failure
  srv::BrokerHost host(sim, "b", cfg);
  host.broker().add_backend(bad);    // least-outstanding ties pick this first
  host.broker().add_backend(good);

  std::vector<http::Fidelity> outcomes;
  for (uint64_t i = 1; i <= 5; ++i) {
    http::BrokerRequest req;
    req.request_id = i;
    req.qos_level = 3;
    req.payload = "SELECT id FROM records WHERE id = " + std::to_string(i);
    host.submit(req, [&](const http::BrokerReply& r) { outcomes.push_back(r.fidelity); });
    sim.run();
  }

  ASSERT_EQ(outcomes.size(), 5u);
  for (size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i], http::Fidelity::kFull) << "request " << i;
  }
  const auto& broker = host.broker();
  EXPECT_EQ(broker.outstanding(), 0u);
  auto total = broker.metrics().total();
  EXPECT_EQ(total.errors, 0u);          // the retry hid every replica failure
  EXPECT_GE(total.retries, 1u);         // at least the first request retried
  EXPECT_EQ(broker.metrics().lifecycle.ejections, 1u);
  EXPECT_TRUE(broker.balancer().ejected(0));
  // After the ejection traffic flowed straight to the healthy replica.
  EXPECT_EQ(bad->calls(), 1u);
  EXPECT_EQ(good->calls(), 5u);
}

TEST(FailureInjection, CgiBackendQueueOverflowSurfacesAsError) {
  sim::Simulation sim;
  srv::CgiBackendConfig cfg;
  cfg.processing_time = 1.0;
  cfg.capacity = 1;
  cfg.queue_limit = 1;
  auto backend = std::make_shared<srv::SimCgiBackend>(sim, "tiny", cfg);
  core::BrokerConfig broker_cfg;
  broker_cfg.rules = core::QosRules{3, 100.0};
  broker_cfg.enable_cache = false;
  srv::BrokerHost host(sim, "b", broker_cfg);
  host.broker().add_backend(backend);

  int full = 0, error = 0;
  for (uint64_t i = 1; i <= 5; ++i) {
    http::BrokerRequest req;
    req.request_id = i;
    req.qos_level = 3;
    req.payload = "/task";
    host.submit(req, [&](const http::BrokerReply& r) {
      r.fidelity == http::Fidelity::kFull ? ++full : ++error;
    });
  }
  sim.run();
  EXPECT_EQ(full + error, 5);
  EXPECT_EQ(full, 2);   // one served + one queued
  EXPECT_EQ(error, 3);  // the rest overflowed
}

}  // namespace
}  // namespace sbroker
