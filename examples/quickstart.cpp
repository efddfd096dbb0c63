// Quickstart — the service-broker API in one file.
//
// Builds a 42,000-record database, stands up a simulated backend behind a
// service broker, and walks through the three behaviours the paper leads
// with: full-fidelity forwarding, cache hits, and QoS-differentiated drops
// under overload.
//
//   $ ./quickstart
#include <cstdio>

#include "db/dataset.h"
#include "srv/broker_host.h"
#include "srv/db_backend.h"

using namespace sbroker;

namespace {

const char* describe(http::Fidelity f) { return http::fidelity_name(f); }

}  // namespace

int main() {
  // 1. A simulated world: virtual clock, MySQL-like store, Apache-like
  //    backend with 5 workers.
  sim::Simulation sim;
  db::Database db;
  util::Rng rng(42);
  db::load_benchmark_table(db, rng, 42000, 100);

  srv::DbBackendConfig backend_cfg;
  backend_cfg.capacity = 5;
  auto backend = std::make_shared<srv::SimDbBackend>(sim, db, backend_cfg);

  // 2. A service broker in front of it: 3 QoS classes, threshold 20,
  //    result cache, stale-on-drop degradation.
  core::BrokerConfig cfg;
  cfg.rules = core::QosRules{3, 20.0};
  cfg.enable_cache = true;
  cfg.cache_ttl = 5.0;
  srv::BrokerHost host(sim, "db-broker", cfg);
  host.broker().add_backend(backend);

  // 3. Pass messages to the broker instead of calling backend APIs.
  auto ask = [&](uint64_t id, int qos, std::string sql) {
    http::BrokerRequest req;
    req.request_id = id;
    req.qos_level = static_cast<uint8_t>(qos);
    req.payload = std::move(sql);
    host.submit(req, [id, &sim](const http::BrokerReply& reply) {
      std::printf("t=%.4fs  request %llu -> %-6s  %.40s%s\n", sim.now(),
                  static_cast<unsigned long long>(id), describe(reply.fidelity),
                  reply.payload.c_str(), reply.payload.size() > 40 ? "..." : "");
    });
  };

  std::printf("-- full fidelity: first access goes to the backend\n");
  ask(1, 3, "SELECT * FROM records WHERE id = 17");
  sim.run();

  std::printf("\n-- cached: an identical query is answered by the broker\n");
  ask(2, 1, "SELECT * FROM records WHERE id = 17");
  sim.run();

  std::printf("\n-- overload: 30 simultaneous class-1 vs class-3 requests\n");
  uint64_t id = 10;
  for (int i = 0; i < 15; ++i) {
    ask(id++, 1, "SELECT * FROM records WHERE id = " + std::to_string(100 + i));
    ask(id++, 3, "SELECT * FROM records WHERE id = " + std::to_string(200 + i));
  }
  sim.run();

  const core::BrokerMetrics& m = host.broker().metrics();
  std::printf("\nper-class summary (issued / forwarded / dropped / cached):\n");
  for (int level = 1; level <= 3; ++level) {
    const auto& c = m.at(level);
    std::printf("  QoS %d: %llu / %llu / %llu / %llu\n", level,
                static_cast<unsigned long long>(c.issued),
                static_cast<unsigned long long>(c.forwarded),
                static_cast<unsigned long long>(c.dropped),
                static_cast<unsigned long long>(c.cache_hits));
  }
  std::printf("\nLower classes are shed first; higher classes keep backend access.\n");
  return 0;
}
