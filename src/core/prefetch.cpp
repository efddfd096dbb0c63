#include "core/prefetch.h"

#include <algorithm>
#include <cassert>

namespace sbroker::core {

void Prefetcher::add(std::string cache_key, std::string payload, double period) {
  assert(period > 0);
  entries_.push_back(PrefetchEntry{std::move(cache_key), std::move(payload), period, 0.0});
}

std::vector<PrefetchEntry> Prefetcher::due(double now, double current_load,
                                           size_t max_issues) {
  std::vector<PrefetchEntry> out;
  if (current_load > idle_threshold_) return out;
  for (auto& entry : entries_) {
    if (entry.next_due > now) continue;
    if (max_issues != 0 && out.size() >= max_issues) break;
    out.push_back(entry);
    entry.next_due = now + entry.period;
    ++issued_;
  }
  return out;
}

std::optional<double> Prefetcher::next_due() const {
  if (entries_.empty()) return std::nullopt;
  double best = entries_.front().next_due;
  for (const auto& e : entries_) best = std::min(best, e.next_due);
  return best;
}

}  // namespace sbroker::core
