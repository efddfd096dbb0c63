#include "diff_common.h"

#include <functional>

#include "obs/histogram.h"

namespace sbroker::bench {
namespace {

struct Testbed {
  sim::Simulation sim;
  std::vector<std::shared_ptr<srv::SimCgiBackend>> backends;
  std::vector<std::unique_ptr<srv::BrokerHost>> hosts;  // broker mode only
  uint64_t next_request_id = 1;
};

core::BrokerConfig broker_config(const DiffConfig& config) {
  core::BrokerConfig cfg;
  cfg.rules = core::QosRules{3, config.threshold};
  cfg.enable_cache = false;       // the paper's differentiation run is uncached
  cfg.serve_stale_on_drop = false;
  cfg.pool = core::PoolConfig{4, 64, true};
  return cfg;
}

}  // namespace

DiffResult run_differentiation(const DiffConfig& config) {
  Testbed bed;

  for (int stage = 1; stage <= 3; ++stage) {
    srv::CgiBackendConfig backend_cfg;
    backend_cfg.processing_time = static_cast<double>(stage);
    backend_cfg.capacity = config.backend_capacity;
    backend_cfg.link_seed = config.seed + static_cast<uint64_t>(stage) * 10;
    bed.backends.push_back(std::make_shared<srv::SimCgiBackend>(
        bed.sim, "backend" + std::to_string(stage), backend_cfg));
    if (config.use_broker) {
      auto host = std::make_unique<srv::BrokerHost>(
          bed.sim, "broker" + std::to_string(stage), broker_config(config),
          sim::ipc_profile(), config.seed + static_cast<uint64_t>(stage) * 100);
      host->broker().add_backend(bed.backends.back());
      bed.hosts.push_back(std::move(host));
    }
  }

  // Per-class stage completion counters for the fidelity proxy.
  std::array<uint64_t, 3> stages_served{};
  std::array<uint64_t, 3> requests_started{};

  // One request = stage 1 -> 2 -> 3, early-terminated on a drop.
  std::function<void(int, int, std::function<void()>)> run_stage =
      [&](int qos_level, int stage, std::function<void()> done) {
        if (stage > 3) {
          done();
          return;
        }
        if (config.use_broker) {
          http::BrokerRequest req;
          req.request_id = bed.next_request_id++;
          req.qos_level = static_cast<uint8_t>(qos_level);
          req.payload = "/stage" + std::to_string(stage);
          bed.hosts[static_cast<size_t>(stage) - 1]->submit(
              req, [&, qos_level, stage, done](const http::BrokerReply& reply) {
                if (reply.fidelity == http::Fidelity::kFull) {
                  stages_served[static_cast<size_t>(qos_level) - 1] += 1;
                  run_stage(qos_level, stage + 1, done);
                } else {
                  done();  // low-fidelity answer: request ends here
                }
              });
        } else {
          // API model: direct access, fresh connection per call, FCFS queue.
          bed.backends[static_cast<size_t>(stage) - 1]->invoke(
              {"/stage" + std::to_string(stage), true},
              [&, qos_level, stage, done](double, bool ok, const std::string&) {
                if (ok) stages_served[static_cast<size_t>(qos_level) - 1] += 1;
                run_stage(qos_level, stage + 1, done);
              });
        }
      };

  std::vector<std::unique_ptr<wl::WebStoneClients>> populations;
  int per_class = config.total_clients / 3;
  int remainder = config.total_clients % 3;
  for (int level = 1; level <= 3; ++level) {
    wl::WebStoneConfig wcfg;
    // Distribute the remainder to the lowest classes first (deterministic).
    wcfg.clients = static_cast<size_t>(per_class + (level <= remainder ? 1 : 0));
    wcfg.qos_level = level;
    wcfg.duration = config.duration;
    wcfg.rng_seed = config.seed + static_cast<uint64_t>(level);
    double half_overhead = config.client_overhead / 2;
    populations.push_back(std::make_unique<wl::WebStoneClients>(
        bed.sim, wcfg, [&, level, half_overhead](int, std::function<void()> done) {
          requests_started[static_cast<size_t>(level) - 1] += 1;
          // Client -> front-end leg, the stages, then the return leg.
          bed.sim.after(half_overhead, [&, level, half_overhead,
                                        done = std::move(done)]() mutable {
            run_stage(level, 1, [&, half_overhead, done = std::move(done)]() {
              bed.sim.after(half_overhead, std::move(done));
            });
          });
        }));
  }
  for (auto& p : populations) p->start();
  bed.sim.run();

  DiffResult result;
  obs::LatencyHistogram all_times;
  for (int level = 1; level <= 3; ++level) {
    const auto& pop = *populations[static_cast<size_t>(level) - 1];
    ClassResult& cr = result.per_class[static_cast<size_t>(level) - 1];
    cr.completed = pop.completed();
    cr.mean_processing_time = pop.response_times().mean_seconds();
    uint64_t started = requests_started[static_cast<size_t>(level) - 1];
    cr.mean_stages =
        started == 0 ? 0
                     : static_cast<double>(stages_served[static_cast<size_t>(level) - 1]) /
                           static_cast<double>(started);
    all_times.merge(pop.response_times());
  }
  result.mean_processing_time_all = all_times.mean_seconds();

  if (config.use_broker) {
    for (size_t b = 0; b < 3; ++b) {
      const core::BrokerMetrics& metrics = bed.hosts[b]->broker().metrics();
      for (int level = 1; level <= 3; ++level) {
        result.drop_ratio[b][static_cast<size_t>(level) - 1] =
            metrics.at(level).drop_ratio();
        result.issued[b][static_cast<size_t>(level) - 1] = metrics.at(level).issued;
      }
    }
  }
  return result;
}

}  // namespace sbroker::bench
