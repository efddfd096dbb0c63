#include "core/prefetch.h"

#include <algorithm>
#include <cassert>

namespace sbroker::core {

void Prefetcher::add(std::string payload, double period) {
  assert(period > 0);
  entries_.push_back(PrefetchEntry{std::move(payload), period, 0.0});
}

std::optional<std::string> Prefetcher::take_due(double now) {
  for (auto& entry : entries_) {
    if (entry.next_due > now) continue;
    entry.next_due = now + entry.period;
    ++issued_;
    return entry.payload;
  }
  return std::nullopt;
}

std::optional<double> Prefetcher::next_due() const {
  if (entries_.empty()) return std::nullopt;
  double best = entries_.front().next_due;
  for (const auto& e : entries_) best = std::min(best, e.next_due);
  return best;
}

}  // namespace sbroker::core
