#include "wl/arrival.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/stats.h"

namespace sbroker::wl {
namespace {

std::vector<double> draw(ArrivalSchedule& s, int n) {
  std::vector<double> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) out.push_back(s.next());
  return out;
}

TEST(ArrivalSchedule, PoissonInterArrivalMoments) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kPoisson;
  cfg.rate = 200.0;
  ArrivalSchedule sched(cfg, 42);
  util::Summary deltas;
  double prev = 0.0;
  for (int i = 0; i < 50000; ++i) {
    double t = sched.next();
    deltas.add(t - prev);
    prev = t;
  }
  // Exponential(rate): mean 1/rate and stddev 1/rate (cv = 1). A periodic or
  // uniform generator would flunk the cv bound immediately.
  EXPECT_NEAR(deltas.mean(), 1.0 / 200.0, 0.05 / 200.0);
  double cv = deltas.stddev() / deltas.mean();
  EXPECT_NEAR(cv, 1.0, 0.05);
}

TEST(ArrivalSchedule, DeterministicPerSeedAndMonotone) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kBursty;
  cfg.rate = 150.0;
  cfg.period = 0.5;
  cfg.duty = 0.4;
  ArrivalSchedule a(cfg, 7), b(cfg, 7), c(cfg, 8);
  bool seeds_differ = false;
  double prev = 0.0;
  for (int i = 0; i < 1000; ++i) {
    double ta = a.next();
    EXPECT_DOUBLE_EQ(ta, b.next());
    if (ta != c.next()) seeds_differ = true;
    EXPECT_GE(ta, prev);
    prev = ta;
  }
  EXPECT_TRUE(seeds_differ);
}

TEST(ArrivalSchedule, BurstyDutyCycleConfinesArrivals) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kBursty;
  cfg.rate = 100.0;
  cfg.period = 1.0;
  cfg.duty = 0.3;
  ArrivalSchedule sched(cfg, 9);
  std::vector<double> times = draw(sched, 20000);
  for (double t : times) {
    double phase = std::fmod(t, cfg.period);
    EXPECT_LT(phase, cfg.duty * cfg.period + 1e-12);
  }
  // Mean offered rate over the whole run is still ~rate despite the bursts.
  double horizon = times.back();
  EXPECT_NEAR(times.size() / horizon, cfg.rate, 0.1 * cfg.rate);
  // On-window intensity is rate/duty.
  EXPECT_DOUBLE_EQ(sched.peak_rate(), cfg.rate / cfg.duty);
}

TEST(ArrivalSchedule, DiurnalRampModulatesIntensity) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kDiurnal;
  cfg.rate = 100.0;
  cfg.period = 10.0;
  cfg.floor_frac = 0.2;
  ArrivalSchedule sched(cfg, 13);
  // rate_at: trough at phase 0, crest at half-period, mean == rate.
  EXPECT_NEAR(sched.rate_at(0.0), cfg.floor_frac * sched.peak_rate(), 1e-9);
  EXPECT_NEAR(sched.rate_at(cfg.period / 2.0), sched.peak_rate(), 1e-9);
  EXPECT_NEAR((sched.rate_at(0.0) + sched.rate_at(cfg.period / 2.0)) / 2.0,
              cfg.rate, 1e-9);
  // Thinned arrivals actually follow the ramp: crest half-periods carry far
  // more traffic than trough half-periods.
  std::vector<double> times = draw(sched, 20000);
  uint64_t crest = 0, trough = 0;
  for (double t : times) {
    double phase = std::fmod(t, cfg.period) / cfg.period;
    if (phase >= 0.25 && phase < 0.75) {
      ++crest;
    } else {
      ++trough;
    }
  }
  EXPECT_GT(crest, 2 * trough);
}

TEST(ArrivalSchedule, ParseKindRoundTrips) {
  EXPECT_EQ(ArrivalSchedule::parse_kind("poisson"), ArrivalKind::kPoisson);
  EXPECT_EQ(ArrivalSchedule::parse_kind("bursty"), ArrivalKind::kBursty);
  EXPECT_EQ(ArrivalSchedule::parse_kind("diurnal"), ArrivalKind::kDiurnal);
  EXPECT_FALSE(ArrivalSchedule::parse_kind("closed").has_value());
  EXPECT_STREQ(ArrivalSchedule::kind_name(ArrivalKind::kBursty), "bursty");
}

}  // namespace
}  // namespace sbroker::wl
