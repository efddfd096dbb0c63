#include "util/rng.h"

#include <cassert>
#include <cmath>

namespace sbroker::util {
namespace {

uint64_t splitmix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t derive_seed(uint64_t run_seed, uint64_t index) {
  // Two SplitMix64 rounds with the index folded in between: a plain
  // `run_seed + index` would make (seed, i+1) and (seed+1, i) identical.
  uint64_t state = run_seed;
  uint64_t mixed = splitmix64(state);
  state = mixed ^ (index * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL);
  return splitmix64(state);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

uint64_t Rng::next_u64() {
  uint64_t result = rotl(s_[1] * 5, 7) * 9;
  uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::next_double() {
  // 53 bits of mantissa.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

int64_t Rng::uniform_int(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<int64_t>(next_u64());  // full range
  // Rejection sampling to remove modulo bias.
  uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return lo + static_cast<int64_t>(v % span);
}

double Rng::uniform_real(double lo, double hi) { return lo + (hi - lo) * next_double(); }

double Rng::exponential(double mean) {
  assert(mean > 0);
  double u;
  do {
    u = next_double();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

ZipfGenerator::ZipfGenerator(uint64_t n, double theta) : n_(n), theta_(theta) {
  assert(n > 0);
  cdf_.reserve(n);
  double sum = 0;
  for (uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
    cdf_.push_back(sum);
  }
  for (auto& c : cdf_) c /= sum;
}

uint64_t ZipfGenerator::next(Rng& rng) const {
  double u = rng.next_double();
  // Binary search first cdf >= u.
  size_t lo = 0, hi = cdf_.size() - 1;
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo + 1;
}

}  // namespace sbroker::util
