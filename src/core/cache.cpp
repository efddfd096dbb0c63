#include "core/cache.h"

#include <algorithm>
#include <cassert>

#include "util/rng.h"

namespace sbroker::core {

uint64_t ttl_salt(uint64_t rng_seed) {
  return util::derive_seed(rng_seed, 0x7711);
}

ResultCache::ResultCache(size_t capacity, double ttl, size_t stripes,
                         CacheTuning tuning, uint64_t salt)
    : stripes_(std::clamp<size_t>(stripes, 1, std::max<size_t>(capacity, 1))),
      per_stripe_capacity_((capacity + stripes_.size() - 1) / stripes_.size()),
      front_window_(std::max<size_t>(per_stripe_capacity_ / 4, 1)),
      ttl_(ttl),
      tuning_(tuning),
      salt_(salt) {
  assert(capacity > 0);
  assert(tuning_.ttl_jitter >= 0.0 && tuning_.ttl_jitter < 1.0);
}

double ResultCache::effective_ttl(std::string_view key) const {
  if (ttl_ <= 0.0) return 0.0;  // expiry disabled
  if (tuning_.ttl_jitter <= 0.0) return ttl_;
  // Deterministic per-key jitter in [-ttl_jitter, +ttl_jitter]: a second
  // hash pass (golden-ratio mix) decorrelates it from the stripe selector,
  // and the per-instance salt decorrelates it across broker instances.
  uint64_t h = (std::hash<std::string_view>{}(key) ^ salt_) *
               0x9e3779b97f4a7c15ULL;
  double u = static_cast<double>(h >> 11) / static_cast<double>(1ULL << 53);
  return ttl_ * (1.0 + tuning_.ttl_jitter * (2.0 * u - 1.0));
}

void ResultCache::move_to_front(Stripe& s, Slot it) {
  s.lru.splice(s.lru.begin(), s.lru, it);
  it->promoted_at = ++s.seq;
}

void ResultCache::touch(Stripe& s, Slot it) {
  ++s.hits;
  // Fewer than front_window_ moves since this entry's own means it is still
  // within the front window; leave the list untouched. This keeps a hot hit
  // from writing list nodes other shards read.
  if (s.seq - it->promoted_at < front_window_) return;
  move_to_front(s, it);
}

LookupView ResultCache::lookup_into(std::string_view key, double now,
                                    Arena& scratch) {
  Stripe& s = stripes_[stripe_of(key)];
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.map.find(key);
  if (it == s.map.end()) {
    ++s.misses;
    return {};
  }
  Entry& e = *it->second;
  if (now <= e.expires_at) {
    touch(s, it->second);
    return {e.negative ? LookupOutcome::kNegative : LookupOutcome::kHit,
            scratch.store(e.value)};
  }
  // Expired. Positive entries get the grace window; negatives never do — a
  // cached error past its short TTL must not keep answering. Either way the
  // stale entry stays: get_stale may still serve it on drops, and a later
  // put() refreshes it in place.
  if (!e.negative && tuning_.swr_grace > 0.0 &&
      now - e.expires_at <= tuning_.swr_grace) {
    ++s.hits;
    if (now - e.refresh_claimed_at > tuning_.swr_grace) {
      e.refresh_claimed_at = now;
      return {LookupOutcome::kStaleRefresh, scratch.store(e.value)};
    }
    return {LookupOutcome::kStaleServe, scratch.store(e.value)};
  }
  ++s.expired;
  ++s.misses;
  return {};
}

std::optional<std::string> ResultCache::get_stale(std::string_view key) const {
  const Stripe& s = stripes_[stripe_of(key)];
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.map.find(key);
  if (it == s.map.end() || it->second->negative) return std::nullopt;
  return it->second->value;
}

void ResultCache::store(Stripe& s, std::string_view key, std::string value,
                        double now, bool negative, double ttl_for_entry) {
  double expires_at = ttl_for_entry > 0.0 ? now + ttl_for_entry : kClaimInf;
  auto it = s.map.find(key);
  if (it != s.map.end()) {
    Entry& e = *it->second;
    // Last-write-wins on stored_at: a completion carrying an older origin
    // timestamp (a slow prefetch issued before the resident value's fetch)
    // must not overwrite newer data.
    if (e.stored_at > now) return;
    e.value = std::move(value);
    e.stored_at = now;
    e.expires_at = expires_at;
    e.negative = negative;
    e.refresh_claimed_at = -kClaimInf;
    move_to_front(s, it->second);
    return;
  }
  if (s.map.size() >= per_stripe_capacity_) {
    // Evict the stripe's least recently used entry.
    assert(!s.lru.empty());
    s.map.erase(s.lru.back().key);
    s.lru.pop_back();
    ++s.evictions;
  }
  s.lru.push_front(Entry{std::string(key), std::move(value), now, expires_at,
                         negative, -kClaimInf, ++s.seq});
  s.map[s.lru.front().key] = s.lru.begin();
}

void ResultCache::put(std::string_view key, std::string value, double now) {
  double ttl = effective_ttl(key);
  Stripe& s = stripes_[stripe_of(key)];
  std::lock_guard<std::mutex> lock(s.mu);
  store(s, key, std::move(value), now, /*negative=*/false, ttl);
}

void ResultCache::put_negative(std::string_view key, std::string value,
                               double now) {
  if (tuning_.negative_ttl <= 0.0) return;
  Stripe& s = stripes_[stripe_of(key)];
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.map.find(key);
  // Never displace positive data, even stale positive data: get_stale can
  // still serve it at low fidelity, which beats re-serving the error.
  if (it != s.map.end() && !it->second->negative) return;
  store(s, key, std::move(value), now, /*negative=*/true, tuning_.negative_ttl);
}

size_t ResultCache::size() const {
  size_t total = 0;
  for (const Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    total += s.map.size();
  }
  return total;
}

uint64_t ResultCache::sum(uint64_t Stripe::*counter) const {
  uint64_t total = 0;
  for (const Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    total += s.*counter;
  }
  return total;
}

uint64_t ResultCache::hits() const { return sum(&Stripe::hits); }
uint64_t ResultCache::misses() const { return sum(&Stripe::misses); }
uint64_t ResultCache::expired() const { return sum(&Stripe::expired); }
uint64_t ResultCache::evictions() const { return sum(&Stripe::evictions); }

double ResultCache::hit_ratio() const {
  uint64_t hit = hits();
  uint64_t total = hit + misses();
  return total == 0 ? 0.0 : static_cast<double>(hit) / static_cast<double>(total);
}

}  // namespace sbroker::core
