#include "util/rng.h"

#include <gtest/gtest.h>

#include <set>

namespace sbroker::util {
namespace {

TEST(Rng, DeterministicBySeed) {
  Rng a(123), b(123), c(124);
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    if (va != c.next_u64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(5);
  EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(DeriveSeed, DeterministicAndDistinct) {
  EXPECT_EQ(derive_seed(123, 4), derive_seed(123, 4));
  std::set<uint64_t> seen;
  for (uint64_t s = 0; s < 32; ++s) {
    for (uint64_t i = 0; i < 32; ++i) seen.insert(derive_seed(s, i));
  }
  EXPECT_EQ(seen.size(), 32u * 32u);
}

// Regression for the seed+k idiom this helper replaced: instance i's
// "seed + (i+1)" stream IS instance i+1's "seed + i" stream, so sibling
// components (shards, links, backends) replayed each other's randomness.
TEST(DeriveSeed, NoSiblingInstanceCollisions) {
  for (uint64_t s = 1; s < 16; ++s) {
    for (uint64_t i = 0; i < 16; ++i) {
      EXPECT_NE(derive_seed(s, i + 1), derive_seed(s + 1, i))
          << "s=" << s << " i=" << i;
    }
  }
  // And the derived streams themselves diverge.
  Rng a(derive_seed(1, 1)), b(derive_seed(2, 0));
  bool differ = false;
  for (int i = 0; i < 10 && !differ; ++i) differ = a.next_u64() != b.next_u64();
  EXPECT_TRUE(differ);
}

TEST(Zipf, UniformWhenThetaZero) {
  Rng rng(37);
  ZipfGenerator zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[zipf.next(rng) - 1];
  for (int c : counts) EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
}

TEST(Zipf, SkewFavorsLowRanks) {
  Rng rng(41);
  ZipfGenerator zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.next(rng) - 1];
  EXPECT_GT(counts[0], counts[9]);
  EXPECT_GT(counts[9], counts[99]);
}

TEST(Zipf, RanksAlwaysInRange) {
  Rng rng(43);
  ZipfGenerator zipf(5, 0.9);
  for (int i = 0; i < 10000; ++i) {
    uint64_t r = zipf.next(rng);
    EXPECT_GE(r, 1u);
    EXPECT_LE(r, 5u);
  }
}

}  // namespace
}  // namespace sbroker::util
