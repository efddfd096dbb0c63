// Ablation — persistent, multiplexed connections vs the API model's
// per-access connect/teardown (Section III: "DB brokers maintain persistent
// connection thus saving the cost of connection setup").
//
// The effect scales with connection setup cost, so we sweep it from LAN-ish
// (10 ms) to WAN/TLS-ish (120 ms, the loosely coupled case with
// authentication). API mode pays setup per access; broker mode pays it only
// when the pool opens a new physical connection.
//
// Usage: ablation_connpool [requests=300] [concurrency=20]
#include <cstdio>

#include "db/dataset.h"
#include "srv/broker_host.h"
#include "srv/db_backend.h"
#include "util/config.h"
#include "util/table_printer.h"
#include "wl/ab_client.h"
#include "wl/query_gen.h"

using namespace sbroker;

namespace {

double run_once(bool pooled, double setup_cost, uint64_t requests, size_t concurrency) {
  sim::Simulation sim;
  db::Database db;
  util::Rng rng(3);
  db::load_benchmark_table(db, rng, 5000, 50);

  srv::DbBackendConfig backend_cfg;
  backend_cfg.capacity = 10;
  backend_cfg.connection_setup = setup_cost;
  backend_cfg.link = sim::wan_profile();  // loosely coupled backend
  backend_cfg.link_seed = 77;
  auto backend = std::make_shared<srv::SimDbBackend>(sim, db, backend_cfg);

  core::BrokerConfig broker_cfg;
  broker_cfg.rules = core::QosRules{3, 1e9};
  broker_cfg.enable_cache = false;
  broker_cfg.pool = pooled ? core::PoolConfig{4, 64, true}
                           : core::PoolConfig{concurrency, 1, false};
  srv::BrokerHost host(sim, "wan-broker", broker_cfg);
  host.broker().add_backend(backend);

  wl::QueryGenerator gen(5000);
  util::Rng query_rng(5);
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
  uint64_t requests = static_cast<uint64_t>(cfg.get_int("requests", 300));
  size_t concurrency = static_cast<size_t>(cfg.get_int("concurrency", 20));

  std::printf("Ablation — persistent pooled connections vs per-access setup (WAN backend)\n\n");
  util::TablePrinter table({"setup_ms", "api_mean_ms", "pooled_mean_ms", "speedup"});
  for (double setup : {0.010, 0.040, 0.080, 0.120}) {
    double api = run_once(false, setup, requests, concurrency);
    double pooled = run_once(true, setup, requests, concurrency);
    table.add_row({util::TablePrinter::fmt(setup * 1000, 0),
                   util::TablePrinter::fmt(api, 2),
                   util::TablePrinter::fmt(pooled, 2),
                   util::TablePrinter::fmt(api / pooled, 2)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nExpected: speedup grows with connection setup cost; the API model pays\n"
              "setup on every access, the broker only on pool growth.\n");
  return 0;
}
