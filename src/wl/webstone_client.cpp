#include "wl/webstone_client.h"

namespace sbroker::wl {

WebStoneClients::WebStoneClients(sim::Simulation& sim, WebStoneConfig config,
                                 IssueFn issue)
    : sim_(sim), config_(config), issue_(std::move(issue)), rng_(config.rng_seed) {}

void WebStoneClients::start() {
  end_time_ = sim_.now() + config_.duration;
  for (size_t i = 0; i < config_.clients; ++i) client_loop();
}

void WebStoneClients::client_loop() {
  if (sim_.now() >= end_time_) return;
  double started = sim_.now();
  issue_(config_.qos_level, [this, started]() {
    // Count only requests that complete inside the window, like WebStone's
    // run summary.
    if (sim_.now() <= end_time_) {
      response_times_.record_seconds(sim_.now() - started);
      ++completed_;
    }
    if (config_.think_time > 0) {
      sim_.after(rng_.exponential(config_.think_time), [this]() { client_loop(); });
    } else {
      client_loop();
    }
  });
}

}  // namespace sbroker::wl
