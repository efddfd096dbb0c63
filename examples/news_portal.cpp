// News portal — prefetching and multitasking (paper Section III).
//
// A My.Yahoo-style page composes three independent panels: headlines from a
// WAN news provider (periodically refreshed -> prefetched by the broker),
// weather from a second provider, and a stock ticker from a third. The page
// generator sends the three broker requests in parallel ("Multitasking"),
// so the page latency is the max, not the sum, of the panel latencies — and
// the headlines panel is usually a local cache hit thanks to prefetch.
//
//   $ ./news_portal [pages=50]
#include <cstdio>

#include "obs/histogram.h"
#include "srv/broker_host.h"
#include "srv/cgi_backend.h"
#include "util/config.h"

using namespace sbroker;

int main(int argc, char** argv) {
  util::Config cfg = util::Config::from_args(argc, argv);
  int pages = static_cast<int>(cfg.get_int("pages", 50));

  sim::Simulation sim;

  struct Panel {
    std::shared_ptr<srv::SimCgiBackend> backend;
    std::unique_ptr<srv::BrokerHost> host;
  };
  auto make_panel = [&](const std::string& name, double service_time, uint64_t seed,
                        bool cache) {
    srv::CgiBackendConfig backend_cfg;
    backend_cfg.processing_time = service_time;
    backend_cfg.capacity = 4;
    backend_cfg.link = sim::wan_profile();
    backend_cfg.link_seed = seed;
    Panel panel;
    panel.backend = std::make_shared<srv::SimCgiBackend>(sim, name, backend_cfg);
    core::BrokerConfig broker_cfg;
    broker_cfg.rules = core::QosRules{3, 50.0};
    broker_cfg.enable_cache = cache;
    broker_cfg.cache_ttl = 15.0;
    panel.host = std::make_unique<srv::BrokerHost>(sim, name + "-broker", broker_cfg,
                                                   sim::ipc_profile(), seed + 1);
    panel.host->broker().add_backend(panel.backend);
    return panel;
  };

  Panel headlines = make_panel("headlines", 0.080, 500, true);
  Panel weather = make_panel("weather", 0.040, 600, true);
  Panel stocks = make_panel("stocks", 0.020, 700, false);  // too volatile to cache

  // The provider updates headlines every ~12s; the broker prefetches on the
  // same cadence so user requests never wait on the WAN.
  headlines.host->broker().prefetcher().add("/headlines", 12.0);
  headlines.host->kick();

  obs::LatencyHistogram page_latency;
  uint64_t next_id = 1;

  auto compose_page = [&](double at) {
    sim.at(at, [&]() {
      auto started = sim.now();
      auto remaining = std::make_shared<int>(3);
      auto panel_done = [&, started, remaining]() {
        if (--*remaining == 0) page_latency.record_seconds(sim.now() - started);
      };
      auto fetch = [&](Panel& panel, std::string target) {
        http::BrokerRequest req;
        req.request_id = next_id++;
        req.qos_level = 2;
        req.payload = std::move(target);
        panel.host->submit(req, [panel_done](const http::BrokerReply&) { panel_done(); });
      };
      // Multitasking: all three panels fetched in parallel.
      fetch(headlines, "/headlines");
      fetch(weather, "/weather?zip=95616");
      fetch(stocks, "/ticker?syms=WEBS,BRKR");
    });
  };

  for (int i = 0; i < pages; ++i) compose_page(1.0 + 0.8 * i);
  // run_until, not run(): the prefetch schedule keeps ticking forever.
  sim.run_until(1.0 + 0.8 * pages + 30.0);

  std::printf("news portal: %d pages composed from 3 providers in parallel\n\n", pages);
  std::printf("  page latency:   mean %.1f ms, p99 %.1f ms\n",
              page_latency.mean_seconds() * 1000, page_latency.p99() * 1000);
  std::printf("  headline fetches answered from cache: %llu of %d\n",
              static_cast<unsigned long long>(
                  headlines.host->broker().metrics().total().cache_hits),
              pages);
  std::printf("  headline provider accesses (mostly prefetch): %llu\n",
              static_cast<unsigned long long>(headlines.backend->calls()));
  std::printf("\nParallel brokers overlap the WAN round trips (page cost = max, not\n"
              "sum); prefetch keeps the slowest panel off the user's critical path.\n");
  return 0;
}
