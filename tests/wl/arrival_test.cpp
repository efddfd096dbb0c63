#include "wl/arrival.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/simulation.h"
#include "util/stats.h"
#include "wl/open_loop.h"

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

// The coordinated-omission test: one sender, one long stall. A closed-loop
// client would emit ONE slow sample and silently not offer the load that was
// due during the stall. The open-loop clients must (a) still send every
// scheduled request, and (b) charge the stall's queueing delay to the
// requests that were due while it lasted — latency from scheduled time, not
// from the (late) actual send.
TEST(OpenLoopClients, StalledSenderReportsScheduledTimeLatency) {
  sim::Simulation sim;
  OpenLoopConfig cfg;
  cfg.arrivals.kind = ArrivalKind::kPoisson;
  cfg.arrivals.rate = 100.0;
  cfg.seed = 21;
  cfg.duration = 2.0;
  cfg.max_outstanding = 1;  // a single connection: stalls serialize everything
  int issued = 0;
  OpenLoopClients clients(sim, cfg, [&](int, std::function<void()> done) {
    // First request stalls for 0.5 s; everything after is 1 ms.
    double service = (issued++ == 0) ? 0.5 : 0.001;
    sim.after(service, std::move(done));
  });
  clients.start();
  sim.run();

  // Conservation: open-loop load is never elided.
  EXPECT_GT(clients.scheduled(), 100u);
  EXPECT_EQ(clients.sent(), clients.scheduled());
  EXPECT_EQ(clients.completed(), clients.scheduled());
  // ~50 arrivals were due during the stall and queued behind it.
  EXPECT_GT(clients.queued_behind(), 20u);
  EXPECT_GT(clients.max_lag(), 0.3);

  // The corrected view sees the stall smeared over the queued requests; the
  // biased from-actual-send view sees mostly 1 ms services and hides it.
  EXPECT_GT(clients.response_times().p99(), 0.1);
  EXPECT_LT(clients.service_times().p50(), 0.01);
  EXPECT_GE(clients.response_times().p99(),
            clients.service_times().p99() - 1e-12);
  EXPECT_GT(clients.response_times().mean_seconds(),
            clients.service_times().mean_seconds());
}

TEST(OpenLoopClients, UnboundedSendersNeverLag) {
  sim::Simulation sim;
  OpenLoopConfig cfg;
  cfg.arrivals.kind = ArrivalKind::kPoisson;
  cfg.arrivals.rate = 200.0;
  cfg.seed = 3;
  cfg.duration = 1.0;
  cfg.max_outstanding = 0;  // unbounded: every arrival sends on schedule
  OpenLoopClients clients(sim, cfg, [&](int, std::function<void()> done) {
    sim.after(0.05, std::move(done));
  });
  clients.start();
  sim.run();
  EXPECT_EQ(clients.sent(), clients.scheduled());
  EXPECT_EQ(clients.queued_behind(), 0u);
  EXPECT_DOUBLE_EQ(clients.max_lag(), 0.0);
  // With no queueing, corrected and biased views coincide.
  EXPECT_NEAR(clients.response_times().mean_seconds(),
              clients.service_times().mean_seconds(), 1e-9);
}

}  // namespace
}  // namespace sbroker::wl
