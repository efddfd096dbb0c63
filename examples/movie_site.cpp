// Movie-schedule site — the paper's caching scenario (Section III).
//
// "Consider an online Web site that provides movie schedules. ... In the
// peak time, there would be a lots of requests for the same movie schedule.
// If the results are not cached, the database has to process the same query
// repeatedly." A Zipf-skewed evening crowd asks for showtimes; the broker
// caches the popular schedules and the database only sees distinct queries.
//
//   $ ./movie_site [clients=30] [duration=60]
#include <cstdio>

#include "db/dataset.h"
#include "srv/broker_host.h"
#include "srv/db_backend.h"
#include "util/config.h"
#include "wl/query_gen.h"
#include "wl/webstone_client.h"

using namespace sbroker;

int main(int argc, char** argv) {
  util::Config cfg = util::Config::from_args(argc, argv);
  size_t clients = static_cast<size_t>(cfg.get_int("clients", 30));
  double duration = cfg.get_double("duration", 60.0);

  sim::Simulation sim;
  db::Database db;
  util::Rng rng(7);
  db::load_movie_schedule(db, rng, 50, 12, 5);

  srv::DbBackendConfig backend_cfg;
  backend_cfg.capacity = 5;
  auto backend = std::make_shared<srv::SimDbBackend>(sim, db, backend_cfg);

  core::BrokerConfig broker_cfg;
  broker_cfg.rules = core::QosRules{3, 40.0};
  broker_cfg.enable_cache = true;
  broker_cfg.cache_capacity = 256;
  broker_cfg.cache_ttl = 30.0;  // schedules are static for the evening
  srv::BrokerHost host(sim, "movie-broker", broker_cfg);
  host.broker().add_backend(backend);

  // Blockbusters dominate: Zipf(theta=1.1) over 50 titles.
  wl::QueryGenerator gen(50, wl::QueryGenerator::Popularity::kZipf, 1.1);
  util::Rng query_rng(13);
  uint64_t next_id = 1;

  wl::WebStoneConfig wcfg;
  wcfg.clients = clients;
  wcfg.duration = duration;
  wcfg.think_time = 0.5;
  wcfg.qos_level = 2;
  wl::WebStoneClients crowd(sim, wcfg, [&](int level, std::function<void()> done) {
    http::BrokerRequest req;
    req.request_id = next_id++;
    req.qos_level = static_cast<uint8_t>(level);
    req.payload = gen.next_movie_query(query_rng, 50);
    host.submit(req, [done](const http::BrokerReply&) { done(); });
  });
  crowd.start();
  sim.run();

  const core::ResultCache& cache = host.broker().cache();
  std::printf("movie site, %zu clients for %.0fs (virtual):\n", clients, duration);
  std::printf("  requests served:    %llu\n",
              static_cast<unsigned long long>(crowd.completed()));
  std::printf("  mean response time: %.2f ms\n", crowd.response_times().mean_seconds() * 1000);
  std::printf("  p99 response time:  %.2f ms\n", crowd.response_times().p99() * 1000);
  std::printf("  database accesses:  %llu\n",
              static_cast<unsigned long long>(backend->calls()));
  std::printf("  cache hit ratio:    %.1f%%  (%llu hits, %llu misses)\n",
              cache.hit_ratio() * 100, static_cast<unsigned long long>(cache.hits()),
              static_cast<unsigned long long>(cache.misses()));
  std::printf("\nThe database answered each popular schedule once per TTL window;\n"
              "the broker absorbed the rest of the peak-time crowd.\n");
  return 0;
}
