// Figure 7 — Request Clustering experimental results.
//
// Paper testbed (Figure 6): ab drives 40 simultaneous requests at a
// front-end Web application; each request triggers one database query
// against a 42,000-record table behind a backend Web server that accepts at
// most 5 simultaneous requests. The service broker clusters a configurable
// number of requests ("degree of clustering") into one backend access whose
// script repeats the workload once per member.
//
// Expected shape: average response time first *declines* with the degree
// (fewer simultaneous backend accesses -> less queueing behind the 5-worker
// cap, and the per-access overhead is amortized), then *rises* once batches
// serialize work a single worker must grind through while others idle. The
// paper's minimum sits near degree ~5-10 for this topology.
//
// Usage: fig7_clustering [requests=400] [concurrency=40] [records=42000]
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

struct RunResult {
  double mean_ms = 0;
  double p90_ms = 0;
  uint64_t backend_calls = 0;
};

RunResult run_once(size_t degree, uint64_t total_requests, size_t concurrency,
                   uint64_t records) {
  sim::Simulation sim;
  db::Database db;
  util::Rng rng(42);
  db::load_benchmark_table(db, rng, records, 100);

  srv::DbBackendConfig backend_cfg;
  backend_cfg.capacity = 5;                 // paper: at most 5 simultaneous
  backend_cfg.connection_setup = 0.015;     // TCP + HTTP + DB handshake
  // Per-access overhead dominates small queries: CGI spawn + parse + plan.
  backend_cfg.cost.fixed_seconds = 0.025;
  backend_cfg.cost.per_statement_seconds = 0.010;  // the script's workload body
  auto backend = std::make_shared<srv::SimDbBackend>(sim, db, backend_cfg);

  core::BrokerConfig broker_cfg;
  broker_cfg.rules = core::QosRules{3, 1e9};  // no admission drops here
  broker_cfg.enable_cache = false;            // isolate the clustering effect
  broker_cfg.cluster = core::ClusterConfig{degree, 0.030};
  srv::BrokerHost host(sim, "db-broker", broker_cfg);
  host.broker().add_backend(backend);

  wl::QueryGenerator gen(records);
  util::Rng query_rng(7);
  wl::AbClient client(sim, wl::AbConfig{concurrency, total_requests},
                      [&](uint64_t seq, std::function<void()> done) {
                        http::BrokerRequest req;
                        req.request_id = seq + 1;
                        req.qos_level = 3;
                        req.payload = gen.next_point_query(query_rng);
                        host.submit(req, [done](const http::BrokerReply&) { done(); });
                      });
  client.start();
  sim.run();

  RunResult result;
  result.mean_ms = client.response_times().mean_seconds() * 1000.0;
  result.p90_ms = client.response_times().quantile(0.9) * 1000.0;
  result.backend_calls = backend->calls();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  util::Config cfg = util::Config::from_args(argc, argv);
  uint64_t total = static_cast<uint64_t>(cfg.get_int("requests", 400));
  size_t concurrency = static_cast<size_t>(cfg.get_int("concurrency", 40));
  uint64_t records = static_cast<uint64_t>(cfg.get_int("records", 42000));

  std::printf("Figure 7 — request clustering: avg response time vs degree of clustering\n");
  std::printf("(%zu simultaneous requests, %llu total, backend capacity 5, %llu-record table)\n\n",
              concurrency, static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(records));

  util::TablePrinter table(
      {"degree", "mean_ms", "p90_ms", "backend_calls"});
  for (size_t degree : {1u, 2u, 4u, 5u, 8u, 10u, 20u, 40u}) {
    RunResult r = run_once(degree, total, concurrency, records);
    table.add_row({std::to_string(degree), util::TablePrinter::fmt(r.mean_ms, 1),
                   util::TablePrinter::fmt(r.p90_ms, 1),
                   std::to_string(r.backend_calls)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nExpected paper shape: U-curve — decline while clustering relieves the\n"
              "5-worker queue, rise once serialized batch work dominates.\n");
  return 0;
}
