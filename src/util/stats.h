// Online moments for the simulation substrate and the benchmark harness.
//
// `Summary` keeps O(1) moments (count/mean/variance/min/max) using Welford's
// algorithm. Latency distributions (quantiles) use obs::LatencyHistogram.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>

namespace sbroker::util {

/// Running mean/variance/min/max without storing samples (Welford).
class Summary {
 public:
  void add(double x) {
    ++n_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  void merge(const Summary& other) {
    if (other.n_ == 0) return;
    if (n_ == 0) {
      *this = other;
      return;
    }
    uint64_t total = n_ + other.n_;
    double delta = other.mean_ - mean_;
    double new_mean =
        mean_ + delta * static_cast<double>(other.n_) / static_cast<double>(total);
    m2_ = m2_ + other.m2_ +
          delta * delta * static_cast<double>(n_) * static_cast<double>(other.n_) /
              static_cast<double>(total);
    mean_ = new_mean;
    n_ = total;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace sbroker::util
