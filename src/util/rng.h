// Deterministic random number generation for workloads and simulation.
//
// All stochastic behaviour in this repo flows through `Rng` so that every
// experiment is reproducible from a single seed. The generator is a
// SplitMix64-seeded xoshiro256** — fast, high quality, and trivially
// copyable so actors can fork independent streams.
#pragma once

#include <cstdint>
#include <vector>

namespace sbroker::util {

/// Derives a decorrelated per-instance seed from a run-level seed and an
/// instance index (SplitMix64 over the mixed pair). Sibling actors — shard
/// brokers, backend replicas, the two directions of a link — must NOT build
/// their RNGs from `seed + k`: adjacent offsets collide across instances
/// (replica i's `seed+1` stream IS replica i+1's `seed+0` stream), so two
/// "independent" links end up replaying the same jitter trace. Deriving from
/// (run_seed, index) keeps runs reproducible from the single run seed while
/// giving every instance its own stream.
uint64_t derive_seed(uint64_t run_seed, uint64_t index);

/// xoshiro256** PRNG with convenience distributions.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value.
  uint64_t next_u64();

  /// Uniform in [0, 1).
  double next_double();

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t uniform_int(int64_t lo, int64_t hi);

  /// Uniform real in [lo, hi).
  double uniform_real(double lo, double hi);

  /// Exponentially distributed with the given mean (= 1/rate). mean > 0.
  double exponential(double mean);

 private:
  uint64_t s_[4];
};

/// Zipf(1..n, theta) sampler using the standard inverse-CDF-over-precomputed-
/// weights method. theta=0 is uniform; larger theta means more skew. Ranks
/// are 1-based: rank 1 is the most popular item.
class ZipfGenerator {
 public:
  ZipfGenerator(uint64_t n, double theta);

  /// Returns a rank in [1, n].
  uint64_t next(Rng& rng) const;

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  uint64_t n_;
  double theta_;
  std::vector<double> cdf_;  // cumulative, normalized
};

}  // namespace sbroker::util
