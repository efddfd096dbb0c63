// Ablation — broker load balancing across replicated backends
// (Section III: the API model "can only work in a speculative manner";
// brokers "accurately distribute the workload").
//
// Three backend replicas, one of them 3x slower (a ServiceProfile with
// multiplier 3 and ±10% jitter — an older box). Speculative policies
// (random, round-robin) keep feeding the slow replica at the same rate; the
// broker's stateful policies shift load away: least-outstanding and weighted
// from in-flight counts, ewma and p2c from the observed response times the
// broker's completion path feeds back.
//
// Usage: ablation_balance [requests=600] [concurrency=30]
#include <cstdio>

#include "db/dataset.h"
#include "srv/broker_host.h"
#include "srv/db_backend.h"
#include "util/config.h"
#include "util/table_printer.h"
#include "wl/ab_client.h"
#include "wl/query_gen.h"
#include "util/rng.h"

using namespace sbroker;

namespace {

double run_once(core::BalancePolicy policy, uint64_t requests, size_t concurrency) {
  sim::Simulation sim;
  db::Database db;
  util::Rng rng(3);
  db::load_benchmark_table(db, rng, 5000, 50);

  core::BrokerConfig broker_cfg;
  broker_cfg.rules = core::QosRules{3, 1e9};
  broker_cfg.enable_cache = false;
  broker_cfg.balance = policy;
  srv::BrokerHost host(sim, "balanced-broker", broker_cfg);

  for (int i = 0; i < 3; ++i) {
    srv::DbBackendConfig backend_cfg;
    backend_cfg.capacity = 4;
    backend_cfg.link_seed = util::derive_seed(100, static_cast<uint64_t>(i));
    backend_cfg.cost.fixed_seconds = 0.010;
    backend_cfg.cost.per_statement_seconds = 0.005;
    if (i == 2) {
      // Replica 2 is 3x slower per access, with service-time jitter.
      backend_cfg.profile.multiplier = 3.0;
      backend_cfg.profile.jitter = 0.1;
    }
    double weight = i == 2 ? 1.0 : 3.0;
    host.broker().add_backend(std::make_shared<srv::SimDbBackend>(sim, db, backend_cfg),
                              weight);
  }

  wl::QueryGenerator gen(5000);
  util::Rng query_rng(9);
  wl::AbClient client(sim, wl::AbConfig{concurrency, requests},
                      [&](uint64_t seq, std::function<void()> done) {
                        http::BrokerRequest req;
                        req.request_id = seq + 1;
                        req.qos_level = 2;
                        req.payload = gen.next_point_query(query_rng);
                        host.submit(req, [done](const http::BrokerReply&) { done(); });
                      });
  client.start();
  sim.run();
  return client.response_times().mean_seconds() * 1000.0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Config cfg = util::Config::from_args(argc, argv);
  uint64_t requests = static_cast<uint64_t>(cfg.get_int("requests", 600));
  size_t concurrency = static_cast<size_t>(cfg.get_int("concurrency", 30));

  std::printf("Ablation — balancing policies over 3 replicas (one 3x slower)\n\n");
  util::TablePrinter table({"policy", "mean_ms"});
  for (auto policy : {core::BalancePolicy::kRandom, core::BalancePolicy::kRoundRobin,
                      core::BalancePolicy::kLeastOutstanding,
                      core::BalancePolicy::kWeighted, core::BalancePolicy::kEwma,
                      core::BalancePolicy::kP2c}) {
    table.add_row({core::balance_policy_name(policy),
                   util::TablePrinter::fmt(run_once(policy, requests, concurrency), 2)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nExpected: the stateful policies (least-outstanding, weighted,\n"
              "ewma, p2c) beat the speculative (random / round-robin) policies\n"
              "the API model is limited to.\n");
  return 0;
}
