#include "core/striped_cache.h"

#include <cassert>

namespace sbroker::core {

StripedResultCache::StripedResultCache(size_t capacity, double ttl, size_t stripes)
    : StripedResultCache(capacity, ttl, stripes, CacheTuning{}) {}

StripedResultCache::StripedResultCache(size_t capacity, double ttl,
                                       size_t stripes, CacheTuning tuning,
                                       uint64_t salt) {
  assert(capacity > 0);
  if (stripes == 0) stripes = 1;
  if (stripes > capacity) stripes = capacity;
  per_stripe_capacity_ = (capacity + stripes - 1) / stripes;
  stripes_.reserve(stripes);
  for (size_t i = 0; i < stripes; ++i) {
    stripes_.push_back(
        std::make_unique<Stripe>(per_stripe_capacity_, ttl, tuning, salt));
  }
}

LookupView StripedResultCache::lookup_into(std::string_view key, double now,
                                           Arena& scratch) {
  Stripe& s = stripe_for(key);
  std::lock_guard<std::mutex> lock(s.mu);
  return s.cache.lookup_into(key, now, scratch);
}

std::optional<std::string> StripedResultCache::get_stale(std::string_view key) const {
  Stripe& s = stripe_for(key);
  std::lock_guard<std::mutex> lock(s.mu);
  return s.cache.get_stale(key);
}

void StripedResultCache::put(std::string_view key, std::string value, double now) {
  Stripe& s = stripe_for(key);
  std::lock_guard<std::mutex> lock(s.mu);
  s.cache.put(key, std::move(value), now);
}

void StripedResultCache::put_negative(std::string_view key, std::string value,
                                      double now) {
  Stripe& s = stripe_for(key);
  std::lock_guard<std::mutex> lock(s.mu);
  s.cache.put_negative(key, std::move(value), now);
}

size_t StripedResultCache::size() const {
  size_t total = 0;
  for (const auto& s : stripes_) {
    std::lock_guard<std::mutex> lock(s->mu);
    total += s->cache.size();
  }
  return total;
}

#define SBROKER_STRIPED_SUM(field)                  \
  uint64_t total = 0;                               \
  for (const auto& s : stripes_) {                  \
    std::lock_guard<std::mutex> lock(s->mu);        \
    total += s->cache.field();                      \
  }                                                 \
  return total;

uint64_t StripedResultCache::hits() const { SBROKER_STRIPED_SUM(hits) }
uint64_t StripedResultCache::misses() const { SBROKER_STRIPED_SUM(misses) }
uint64_t StripedResultCache::expired() const { SBROKER_STRIPED_SUM(expired) }
uint64_t StripedResultCache::evictions() const { SBROKER_STRIPED_SUM(evictions) }

#undef SBROKER_STRIPED_SUM

}  // namespace sbroker::core
