// Ablation — result caching at the broker (Section III, "Caching of query
// results"; the movie-schedule scenario).
//
// A movie site stores schedules in a database; at peak time a Zipf-skewed
// stream of clients asks for the same few blockbusters. Without a broker
// cache every request pays a backend access; with it, popular schedules are
// answered locally. We sweep the popularity skew and report mean response
// time, backend calls, and cache hit ratio.
//
// Usage: ablation_cache [requests=600] [concurrency=20] [movies=50]
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
  uint64_t backend_calls = 0;
  double hit_ratio = 0;
};

RunResult run_once(bool enable_cache, double theta, uint64_t requests,
                   size_t concurrency, int64_t movies) {
  sim::Simulation sim;
  db::Database db;
  util::Rng rng(11);
  db::load_movie_schedule(db, rng, movies, 12, 5);

  srv::DbBackendConfig backend_cfg;
  backend_cfg.capacity = 5;
  backend_cfg.link = sim::lan_profile();
  auto backend = std::make_shared<srv::SimDbBackend>(sim, db, backend_cfg);

  core::BrokerConfig broker_cfg;
  broker_cfg.rules = core::QosRules{3, 1e9};
  broker_cfg.enable_cache = enable_cache;
  broker_cfg.cache_capacity = 256;
  broker_cfg.cache_ttl = 60.0;  // schedules change rarely within a run
  srv::BrokerHost host(sim, "movie-broker", broker_cfg);
  host.broker().add_backend(backend);

  wl::QueryGenerator gen(static_cast<uint64_t>(movies),
                         theta > 0 ? wl::QueryGenerator::Popularity::kZipf
                                   : wl::QueryGenerator::Popularity::kUniform,
                         theta);
  util::Rng query_rng(23);
  wl::AbClient client(sim, wl::AbConfig{concurrency, requests},
                      [&](uint64_t seq, std::function<void()> done) {
                        http::BrokerRequest req;
                        req.request_id = seq + 1;
                        req.qos_level = 2;
                        req.payload = gen.next_movie_query(query_rng, movies);
                        host.submit(req, [done](const http::BrokerReply&) { done(); });
                      });
  client.start();
  sim.run();

  RunResult r;
  r.mean_ms = client.response_times().mean_seconds() * 1000.0;
  r.backend_calls = backend->calls();
  r.hit_ratio = host.broker().cache().hit_ratio();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  util::Config cfg = util::Config::from_args(argc, argv);
  uint64_t requests = static_cast<uint64_t>(cfg.get_int("requests", 600));
  size_t concurrency = static_cast<size_t>(cfg.get_int("concurrency", 20));
  int64_t movies = cfg.get_int("movies", 400);

  std::printf("Ablation — broker result cache (movie-schedule site, Zipf popularity)\n\n");
  util::TablePrinter table({"zipf_theta", "cache", "mean_ms", "backend_calls", "hit_ratio"});
  for (double theta : {0.0, 0.6, 0.9, 1.2}) {
    for (bool cache : {false, true}) {
      RunResult r = run_once(cache, theta, requests, concurrency, movies);
      table.add_row({util::TablePrinter::fmt(theta, 1), cache ? "on" : "off",
                     util::TablePrinter::fmt(r.mean_ms, 2),
                     std::to_string(r.backend_calls),
                     util::TablePrinter::fmt(r.hit_ratio, 3)});
    }
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nExpected: with skew, cache-on cuts backend calls and mean latency; at\n"
              "theta=0 (uniform over %lld keys) the cache barely helps.\n",
              static_cast<long long>(movies));
  return 0;
}
