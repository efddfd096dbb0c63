// WebStone-style closed-loop client population.
//
// The differentiation experiment uses WebStone 2.5: best-effort clients that
// issue a request, wait for the full response, then immediately (or after a
// think time) issue the next, for a fixed measurement window. "Since
// WebStone clients were best-effort based, with shorter processing time,
// more number of requests were initiated" — so completion counts per class
// fall out of the loop naturally (paper Table I).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/histogram.h"
#include "sim/simulation.h"
#include "util/rng.h"

namespace sbroker::wl {

struct WebStoneConfig {
  size_t clients = 10;        ///< population size for this class
  int qos_level = 1;
  double think_time = 0.0;    ///< mean exponential think time; 0 = none
  double duration = 120.0;    ///< measurement window (virtual seconds)
  uint64_t rng_seed = 101;
};

class WebStoneClients {
 public:
  /// `issue(qos_level, done)` performs one request for this class and calls
  /// `done` when the response (any fidelity) arrives.
  using IssueFn = std::function<void(int qos_level, std::function<void()> done)>;

  WebStoneClients(sim::Simulation& sim, WebStoneConfig config, IssueFn issue);

  void start();

  uint64_t completed() const { return completed_; }
  const obs::LatencyHistogram& response_times() const { return response_times_; }

 private:
  void client_loop();

  sim::Simulation& sim_;
  WebStoneConfig config_;
  IssueFn issue_;
  util::Rng rng_;
  double end_time_ = 0.0;
  uint64_t completed_ = 0;
  obs::LatencyHistogram response_times_;
};

}  // namespace sbroker::wl
