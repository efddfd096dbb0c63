// Ablation — fidelity variation via QoS-aware query rewriting.
//
// "It is observed that by varying response fidelity in different QoS levels,
// service brokers can improve responsiveness and scalability" (Section I).
// Clients issue category queries that return ~400 rows each; under WARM/HOT
// load the broker rewrites low-class queries with a LIMIT cap, cutting the
// backend's per-query work. We sweep the client count and compare mean
// response time and throughput with rewriting off vs on.
//
// Usage: ablation_fidelity [duration=60]
#include <cstdio>

#include "db/dataset.h"
#include "srv/broker_host.h"
#include "srv/db_backend.h"
#include "util/config.h"
#include "util/table_printer.h"
#include "wl/query_gen.h"
#include "wl/webstone_client.h"

using namespace sbroker;

namespace {

struct RunResult {
  double mean_ms = 0;
  uint64_t completed = 0;
  uint64_t rewrites = 0;
};

RunResult run_once(bool rewrite, size_t clients, double duration) {
  sim::Simulation sim;
  db::Database db;
  util::Rng rng(3);
  db::load_benchmark_table(db, rng, 42000, 100);

  srv::DbBackendConfig backend_cfg;
  backend_cfg.capacity = 5;
  // Returned rows dominate the cost so a LIMIT cap buys real capacity.
  backend_cfg.cost.per_row_returned = 0.0002;
  auto backend = std::make_shared<srv::SimDbBackend>(sim, db, backend_cfg);

  core::BrokerConfig broker_cfg;
  broker_cfg.rules = core::QosRules{3, 40.0};
  broker_cfg.enable_cache = false;
  broker_cfg.serve_stale_on_drop = false;
  broker_cfg.hotspot.warm_threshold = 8.0;
  broker_cfg.hotspot.hot_threshold = 20.0;
  broker_cfg.rewrite.enabled = rewrite;  // caps LIMIT at 50 (WARM) / 10 (HOT)
  srv::BrokerHost host(sim, "fidelity-broker", broker_cfg);
  host.broker().add_backend(backend);

  wl::QueryGenerator gen(42000);
  util::Rng query_rng(11);
  uint64_t next_id = 1;

  wl::WebStoneConfig wcfg;
  wcfg.clients = clients;
  wcfg.duration = duration;
  wcfg.think_time = 0.2;
  wcfg.qos_level = 1;  // the class the rules degrade first
  wl::WebStoneClients population(sim, wcfg, [&](int level, std::function<void()> done) {
    http::BrokerRequest req;
    req.request_id = next_id++;
    req.qos_level = static_cast<uint8_t>(level);
    // ~420 rows per category on the 42k table.
    req.payload = gen.next_category_query(query_rng, 100, 100000);
    host.submit(req, [done](const http::BrokerReply&) { done(); });
  });
  population.start();
  sim.run();

  RunResult r;
  r.mean_ms = population.response_times().mean_seconds() * 1000.0;
  r.completed = population.completed();
  r.rewrites = host.broker().rewriter().rewrites();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  util::Config cfg = util::Config::from_args(argc, argv);
  double duration = cfg.get_double("duration", 60.0);

  std::printf("Ablation — fidelity variation (LIMIT rewriting) under rising load\n\n");
  util::TablePrinter table(
      {"clients", "off_mean_ms", "off_served", "on_mean_ms", "on_served", "rewrites"});
  for (size_t clients : {5u, 10u, 20u, 40u}) {
    RunResult off = run_once(false, clients, duration);
    RunResult on = run_once(true, clients, duration);
    table.add_row({std::to_string(clients), util::TablePrinter::fmt(off.mean_ms, 1),
                   std::to_string(off.completed), util::TablePrinter::fmt(on.mean_ms, 1),
                   std::to_string(on.completed), std::to_string(on.rewrites)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nExpected: identical at light load (no rewriting); under load the\n"
              "rewriting column serves more requests at lower latency by returning\n"
              "result prefixes — responsiveness bought with fidelity.\n");
  return 0;
}
