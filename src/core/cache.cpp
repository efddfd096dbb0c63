#include "core/cache.h"

#include <cassert>

namespace sbroker::core {

ResultCache::ResultCache(size_t capacity, double ttl)
    : ResultCache(capacity, ttl, CacheTuning{}) {}

ResultCache::ResultCache(size_t capacity, double ttl, CacheTuning tuning)
    : capacity_(capacity),
      front_window_(capacity / 4 > 0 ? capacity / 4 : 1),
      ttl_(ttl),
      tuning_(tuning) {
  assert(capacity > 0);
  assert(tuning_.ttl_jitter >= 0.0 && tuning_.ttl_jitter < 1.0);
}

double ResultCache::effective_ttl(std::string_view key) const {
  if (ttl_ <= 0.0) return 0.0;  // expiry disabled
  if (tuning_.ttl_jitter <= 0.0) return ttl_;
  // Deterministic per-key jitter in [-ttl_jitter, +ttl_jitter]: a second
  // hash pass (golden-ratio mix) decorrelates it from the stripe selector,
  // and the per-instance salt decorrelates it across broker instances.
  uint64_t h = (std::hash<std::string_view>{}(key) ^ tuning_.jitter_salt) *
               0x9e3779b97f4a7c15ULL;
  double u = static_cast<double>(h >> 11) / static_cast<double>(1ULL << 53);
  return ttl_ * (1.0 + tuning_.ttl_jitter * (2.0 * u - 1.0));
}

void ResultCache::move_to_front(Slot it) {
  lru_.splice(lru_.begin(), lru_, it);
  it->promoted_at = ++seq_;
}

void ResultCache::touch(Slot it) {
  ++hits_;
  // Fewer than front_window_ moves since this entry's own means it is still
  // within the front window; leave the list untouched. Under the striped
  // cache this keeps a hot hit from writing list nodes other shards read.
  if (seq_ - it->promoted_at < front_window_) return;
  move_to_front(it);
}

LookupView ResultCache::lookup_into(std::string_view key, double now,
                                    Arena& scratch) {
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return {};
  }
  Entry& e = *it->second;
  if (fresh(e, now)) {
    touch(it->second);
    return {e.negative ? LookupOutcome::kNegative : LookupOutcome::kHit,
            scratch.store(e.value)};
  }
  // Expired. Positive entries get the grace window; negatives never do — a
  // cached error past its short TTL must not keep answering. Either way the
  // stale entry stays: get_stale may still serve it on drops, and a later
  // put() refreshes it in place.
  if (!e.negative && tuning_.swr_grace > 0.0 &&
      now - e.expires_at <= tuning_.swr_grace) {
    ++hits_;
    if (now - e.refresh_claimed_at > tuning_.swr_grace) {
      e.refresh_claimed_at = now;
      return {LookupOutcome::kStaleRefresh, scratch.store(e.value)};
    }
    return {LookupOutcome::kStaleServe, scratch.store(e.value)};
  }
  ++expired_;
  ++misses_;
  return {};
}

std::optional<std::string> ResultCache::get_stale(std::string_view key) const {
  auto it = map_.find(key);
  if (it == map_.end() || it->second->negative) return std::nullopt;
  return it->second->value;
}

void ResultCache::store(std::string_view key, std::string value, double now,
                        bool negative, double ttl_for_entry) {
  double expires_at = ttl_for_entry > 0.0 ? now + ttl_for_entry : kClaimInf;
  auto it = map_.find(key);
  if (it != map_.end()) {
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
    move_to_front(it->second);
    return;
  }
  if (map_.size() >= capacity_) {
    // Evict the least recently used entry.
    assert(!lru_.empty());
    map_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
  }
  lru_.push_front(Entry{std::string(key), std::move(value), now, expires_at,
                        negative, -kClaimInf, ++seq_});
  map_[lru_.front().key] = lru_.begin();
}

void ResultCache::put(std::string_view key, std::string value, double now) {
  store(key, std::move(value), now, /*negative=*/false, effective_ttl(key));
}

void ResultCache::put_negative(std::string_view key, std::string value,
                               double now) {
  if (tuning_.negative_ttl <= 0.0) return;
  auto it = map_.find(key);
  // Never displace positive data, even stale positive data: get_stale can
  // still serve it at low fidelity, which beats re-serving the error.
  if (it != map_.end() && !it->second->negative) return;
  store(key, std::move(value), now, /*negative=*/true, tuning_.negative_ttl);
}

bool ResultCache::invalidate(std::string_view key) {
  auto it = map_.find(key);
  if (it == map_.end()) return false;
  lru_.erase(it->second);
  map_.erase(it);
  return true;
}

void ResultCache::clear() {
  lru_.clear();
  map_.clear();
}

}  // namespace sbroker::core
