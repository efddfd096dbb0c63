// Ablation — prefetching periodic content (Section III: "a news provider
// website periodically updates the online headlines. Service brokers can be
// synchronized to prefetch them when the server load is not high").
//
// A WAN news backend serves /headlines. Clients poll it steadily. Without
// prefetch, every cache expiry sends a client across the WAN; with the
// broker prefetching on the update period, clients are served locally.
//
// Usage: ablation_prefetch [duration=120] [clients=10]
#include <cstdio>

#include "srv/broker_host.h"
#include "srv/cgi_backend.h"
#include "util/config.h"
#include "util/table_printer.h"
#include "wl/webstone_client.h"

using namespace sbroker;

namespace {

struct RunResult {
  double mean_ms = 0;
  double p99_ms = 0;
  uint64_t backend_calls = 0;
};

RunResult run_once(bool prefetch, double duration, size_t clients) {
  sim::Simulation sim;
  srv::CgiBackendConfig backend_cfg;
  backend_cfg.processing_time = 0.050;  // render headlines
  backend_cfg.capacity = 5;
  backend_cfg.link = sim::wan_profile();  // loosely coupled provider
  auto backend = std::make_shared<srv::SimCgiBackend>(sim, "news", backend_cfg);

  core::BrokerConfig broker_cfg;
  broker_cfg.rules = core::QosRules{3, 1e9};
  broker_cfg.enable_cache = true;
  broker_cfg.cache_ttl = 10.0;  // headlines refresh period
  srv::BrokerHost host(sim, "news-broker", broker_cfg);
  host.broker().add_backend(backend);
  if (prefetch) {
    host.broker().prefetcher().add("/headlines", 9.0);
    host.kick();
  }

  wl::WebStoneConfig wcfg;
  wcfg.clients = clients;
  wcfg.duration = duration;
  wcfg.think_time = 1.0;
  wcfg.qos_level = 2;
  uint64_t next_id = 1;
  wl::WebStoneClients population(sim, wcfg, [&](int level, std::function<void()> done) {
    http::BrokerRequest req;
    req.request_id = next_id++;
    req.qos_level = static_cast<uint8_t>(level);
    req.payload = "/headlines";
    host.submit(req, [done](const http::BrokerReply&) { done(); });
  });
  population.start();
  // run_until, not run(): the periodic prefetch schedule never drains the
  // event queue on its own.
  sim.run_until(duration + 30.0);

  RunResult r;
  r.mean_ms = population.response_times().mean_seconds() * 1000.0;
  r.p99_ms = population.response_times().p99() * 1000.0;
  r.backend_calls = backend->calls();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  util::Config cfg = util::Config::from_args(argc, argv);
  double duration = cfg.get_double("duration", 120.0);
  size_t clients = static_cast<size_t>(cfg.get_int("clients", 10));

  std::printf("Ablation — prefetching periodic headlines from a WAN provider\n\n");
  util::TablePrinter table({"prefetch", "mean_ms", "p99_ms", "backend_calls"});
  for (bool prefetch : {false, true}) {
    RunResult r = run_once(prefetch, duration, clients);
    table.add_row({prefetch ? "on" : "off", util::TablePrinter::fmt(r.mean_ms, 2),
                   util::TablePrinter::fmt(r.p99_ms, 2),
                   std::to_string(r.backend_calls)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nExpected: prefetch-on serves clients from the local cache (sub-ms),\n"
              "with a constant background refresh instead of client-visible WAN trips.\n");
  return 0;
}
