#include "wl/ab_client.h"

#include <cassert>

namespace sbroker::wl {

AbClient::AbClient(sim::Simulation& sim, AbConfig config, IssueFn issue)
    : sim_(sim), config_(config), issue_(std::move(issue)) {
  assert(config_.concurrency > 0);
}

void AbClient::start() {
  size_t initial = config_.concurrency;
  if (initial > config_.total_requests) {
    initial = static_cast<size_t>(config_.total_requests);
  }
  for (size_t i = 0; i < initial; ++i) issue_next();
}

void AbClient::issue_next() {
  if (issued_ >= config_.total_requests) return;
  uint64_t seq = issued_++;
  double started = sim_.now();
  issue_(seq, [this, started]() {
    response_times_.record_seconds(sim_.now() - started);
    ++completed_;
    issue_next();
  });
}

}  // namespace sbroker::wl
