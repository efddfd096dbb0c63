// ab-style load generator (Apache benchmarking tool).
//
// The clustering experiment drives the front end with ab: a fixed number of
// simultaneous connections, each issuing its next request the moment the
// previous one completes, until a total request count is reached. Response
// times are recorded per request.
#pragma once

#include <cstdint>
#include <functional>

#include "obs/histogram.h"
#include "sim/simulation.h"

namespace sbroker::wl {

struct AbConfig {
  size_t concurrency = 40;      ///< simultaneous in-flight requests
  uint64_t total_requests = 400;
};

class AbClient {
 public:
  /// `issue(seq, done)` performs request number `seq` and must call `done`
  /// exactly once when the response arrives.
  using IssueFn = std::function<void(uint64_t seq, std::function<void()> done)>;

  AbClient(sim::Simulation& sim, AbConfig config, IssueFn issue);

  /// Launches the initial `concurrency` requests.
  void start();

  bool finished() const { return completed_ == config_.total_requests; }
  uint64_t completed() const { return completed_; }
  const obs::LatencyHistogram& response_times() const { return response_times_; }

 private:
  void issue_next();

  sim::Simulation& sim_;
  AbConfig config_;
  IssueFn issue_;
  uint64_t issued_ = 0;
  uint64_t completed_ = 0;
  obs::LatencyHistogram response_times_;
};

}  // namespace sbroker::wl
