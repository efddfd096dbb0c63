// LatencyHistogram: bucket placement, quantile error bound, merge, overflow.
#include "obs/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace sbroker::obs {
namespace {

TEST(LatencyHistogram, EmptyReportsZeros) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum_seconds(), 0.0);
  EXPECT_EQ(h.mean_seconds(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.overflow_count(), 0u);
}

TEST(LatencyHistogram, SmallValuesAreExact) {
  // 0..31us get one bucket each; the midpoint estimate is value + 0.5us.
  LatencyHistogram h;
  for (uint64_t us = 0; us < 32; ++us) h.record_us(us);
  EXPECT_EQ(h.count(), 32u);
  for (uint64_t us = 0; us < 32; ++us) {
    double q = (static_cast<double>(us) + 0.5) / 32.0;
    double estimate = h.quantile(q);
    // Midpoint of the 1us bucket, capped at the recorded max (31us).
    double expected = std::min(static_cast<double>(us) + 0.5, 31.0) * 1e-6;
    EXPECT_NEAR(estimate, expected, 1e-9) << "us=" << us;
  }
}

TEST(LatencyHistogram, NegativeAndZeroClampToZeroBucket) {
  LatencyHistogram h;
  h.record_seconds(-1.0);
  h.record_seconds(0.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.sum_seconds(), 0.0);
  EXPECT_LT(h.quantile(1.0), 1e-6);  // both in the [0,1us) bucket
}

TEST(LatencyHistogram, QuantileWithinRelativeErrorBound) {
  // Log-spaced spot values across the tracked range: the midpoint estimate
  // of a single-sample histogram must be within kRelativeError of the
  // sample (plus the 0.5us quantization floor for tiny values).
  for (double seconds : {3e-6, 47e-6, 123e-6, 1.7e-3, 9.9e-3, 0.21, 3.4, 60.0}) {
    LatencyHistogram h;
    h.record_seconds(seconds);
    double estimate = h.quantile(0.5);
    double tolerance = seconds * LatencyHistogram::kRelativeError + 0.5e-6;
    EXPECT_NEAR(estimate, seconds, tolerance) << "seconds=" << seconds;
  }
}

TEST(LatencyHistogram, QuantileErrorBoundRandomized) {
  util::Rng rng(7);
  LatencyHistogram h;
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) {
    // Log-uniform over [1us, 100s].
    double seconds = 1e-6 * std::pow(10.0, rng.next_double() * 8.0);
    samples.push_back(seconds);
    h.record_seconds(seconds);
  }
  std::sort(samples.begin(), samples.end());
  for (double q : {0.1, 0.5, 0.9, 0.95, 0.99}) {
    size_t rank = static_cast<size_t>(q * static_cast<double>(samples.size()));
    if (rank >= samples.size()) rank = samples.size() - 1;
    double exact = samples[rank];
    double estimate = h.quantile(q);
    // The histogram answer may land one sample off the nearest-rank choice,
    // but must stay within the relative error band around a neighborhood of
    // the exact answer.
    double lo = samples[rank > 10 ? rank - 10 : 0];
    double hi = samples[rank + 10 < samples.size() ? rank + 10 : samples.size() - 1];
    EXPECT_GE(estimate, lo * (1.0 - 2.0 * LatencyHistogram::kRelativeError) - 1e-6)
        << "q=" << q << " exact=" << exact;
    EXPECT_LE(estimate, hi * (1.0 + 2.0 * LatencyHistogram::kRelativeError) + 1e-6)
        << "q=" << q << " exact=" << exact;
  }
}

TEST(LatencyHistogram, CountSumMeanMax) {
  LatencyHistogram h;
  h.record_seconds(0.001);
  h.record_seconds(0.003);
  h.record_seconds(0.002);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_NEAR(h.sum_seconds(), 0.006, 1e-9);
  EXPECT_NEAR(h.mean_seconds(), 0.002, 1e-9);
  EXPECT_NEAR(h.max_seconds(), 0.003, 1e-9);
  // Recording after a query is seen by the next query (nothing is cached).
  EXPECT_NEAR(h.p50(), 0.002, 0.002 * LatencyHistogram::kRelativeError);
  h.record_seconds(0.0001);
  h.record_seconds(0.0001);
  EXPECT_NEAR(h.p50(), 0.001, 0.001 * LatencyHistogram::kRelativeError);
}

TEST(LatencyHistogram, OverflowBucketReportsRecordedMax) {
  LatencyHistogram h;
  double huge = 4000.0;  // over 2^30 us ~= 1074s
  h.record_seconds(huge);
  h.record_seconds(0.001);
  EXPECT_EQ(h.overflow_count(), 1u);
  EXPECT_EQ(h.count(), 2u);
  // The overflow bucket's quantile answer is the recorded maximum, not a
  // midpoint of an unbounded range.
  EXPECT_NEAR(h.quantile(1.0), huge, 1e-3);
}

TEST(LatencyHistogram, MergeMatchesCombinedRecording) {
  util::Rng rng(11);
  LatencyHistogram a, b, combined;
  for (int i = 0; i < 1000; ++i) {
    double s1 = rng.next_double() * 0.05;
    double s2 = rng.next_double() * 2.0;
    a.record_seconds(s1);
    combined.record_seconds(s1);
    b.record_seconds(s2);
    combined.record_seconds(s2);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_NEAR(a.sum_seconds(), combined.sum_seconds(), 1e-9);
  EXPECT_NEAR(a.max_seconds(), combined.max_seconds(), 1e-12);
  for (double q : {0.25, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(a.quantile(q), combined.quantile(q)) << "q=" << q;
  }
}

TEST(LatencyHistogram, CountLeIsMonotoneAndConverges) {
  LatencyHistogram h;
  for (int i = 1; i <= 100; ++i) {
    h.record_seconds(static_cast<double>(i) * 1e-3);  // 1..100ms
  }
  uint64_t prev = 0;
  for (double bound : {0.0005, 0.005, 0.01, 0.05, 0.1, 1.0}) {
    uint64_t c = h.count_le(bound);
    EXPECT_GE(c, prev) << "bound=" << bound;
    prev = c;
  }
  EXPECT_EQ(h.count_le(1.0), h.count());
  EXPECT_EQ(h.count_le(0.0), 0u);
  // A mid-range bound catches roughly the right fraction (bucket rounding
  // may shave the samples whose bucket straddles the bound).
  uint64_t half = h.count_le(0.050);
  EXPECT_GE(half, 45u);
  EXPECT_LE(half, 51u);
}

TEST(LatencyHistogram, BucketEdgesCoverDomain) {
  // Every bucket's [lower, upper) must contain the values indexed into it.
  for (uint64_t us : {0ull, 1ull, 31ull, 32ull, 33ull, 63ull, 64ull, 1000ull,
                      65535ull, 1048576ull, (1ull << 30) - 1}) {
    LatencyHistogram h;
    h.record_us(us);
    for (size_t i = 0; i < LatencyHistogram::num_buckets(); ++i) {
      if (h.bucket_count(i) == 0) continue;
      EXPECT_GE(static_cast<double>(us) * 1e-6,
                LatencyHistogram::bucket_lower_seconds(i))
          << "us=" << us << " bucket=" << i;
      EXPECT_LT(static_cast<double>(us) * 1e-6,
                LatencyHistogram::bucket_upper_seconds(i))
          << "us=" << us << " bucket=" << i;
    }
  }
}

}  // namespace
}  // namespace sbroker::obs
