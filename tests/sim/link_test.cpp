#include "sim/link.h"

#include <gtest/gtest.h>

#include <vector>

namespace sbroker::sim {
namespace {

/// Link parameters with the named delay fields set and the rest at their
/// defaults (no bandwidth trace).
Link::Params params(double latency, double jitter = 0.0,
                    double bytes_per_second = 0.0) {
  Link::Params p;
  p.latency = latency;
  p.jitter = jitter;
  p.bytes_per_second = bytes_per_second;
  return p;
}

TEST(Link, DeliversAfterLatency) {
  Simulation sim;
  Link link(sim, params(0.5));
  double arrived = -1;
  link.deliver([&] { arrived = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(arrived, 0.5);
  EXPECT_EQ(link.delivered(), 1u);
}

TEST(Link, JitterBoundedAndVarying) {
  Simulation sim;
  Link link(sim, params(0.1, 0.2), util::Rng(5));
  std::vector<double> arrivals;
  for (int i = 0; i < 50; ++i) {
    link.deliver([&] { arrivals.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(arrivals.size(), 50u);
  bool varies = false;
  for (double t : arrivals) {
    EXPECT_GE(t, 0.1);
    EXPECT_LE(t, 0.3 + 1e-12);
    if (t != arrivals[0]) varies = true;
  }
  EXPECT_TRUE(varies);
}

// Regression: independent jitter draws used to let a later message overtake
// an earlier one (message i+1 drawing low jitter arrived before message i
// drawing high jitter), which scrambles a pipelined FIFO channel's
// reply-matching. Delivery order must equal send order, always.
TEST(Link, JitterNeverReordersDeliveries) {
  Simulation sim;
  Link link(sim, params(0.1, 0.2), util::Rng(7));
  std::vector<int> order;
  for (int i = 0; i < 200; ++i) {
    link.deliver([&order, i] { order.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 200u);
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(order[i], i) << "delivery " << i << " arrived out of send order";
  }
  // With 200 independent U(0, 0.2) draws, some later draw is almost surely
  // smaller than its predecessor's; the clamp must have engaged.
  EXPECT_GT(link.fifo_holds(), 0u);
}

TEST(Link, MonotoneClampPreservesArrivalTimes) {
  Simulation sim;
  Link link(sim, params(0.1, 0.2), util::Rng(11));
  std::vector<double> arrivals;
  for (int i = 0; i < 50; ++i) {
    link.deliver([&] { arrivals.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(arrivals.size(), 50u);
  for (size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_GE(arrivals[i], arrivals[i - 1]);
  }
}

TEST(Link, BandwidthAddsTransmissionDelay) {
  Simulation sim;
  Link link(sim, params(0.0, 0.0, 1000.0));
  double arrived = -1;
  link.deliver([&] { arrived = sim.now(); }, 500);
  sim.run();
  EXPECT_DOUBLE_EQ(arrived, 0.5);
}

// The link is one channel: the second message's transmission starts only
// when the first one's finishes, so back-to-back sends serialize instead of
// each independently taking bytes/bandwidth from t=0.
TEST(Link, SharedChannelSerializesTransmissions) {
  Simulation sim;
  Link link(sim, params(0.0, 0.0, 1000.0));
  double first = -1, second = -1;
  link.deliver([&] { first = sim.now(); }, 500);
  link.deliver([&] { second = sim.now(); }, 500);
  sim.run();
  EXPECT_DOUBLE_EQ(first, 0.5);
  EXPECT_DOUBLE_EQ(second, 1.0);
}

TEST(Link, BandwidthTraceStepsOverrideConstantRate) {
  Simulation sim;
  Link::Params p;
  p.latency = 0.0;
  p.bytes_per_second = 9999.0;  // must be ignored once a trace is set
  p.bandwidth_trace = {{0.0, 1000.0}, {1.0, 100.0}};
  Link link(sim, p);
  EXPECT_DOUBLE_EQ(link.bandwidth_at(0.0), 1000.0);
  EXPECT_DOUBLE_EQ(link.bandwidth_at(0.999), 1000.0);
  EXPECT_DOUBLE_EQ(link.bandwidth_at(1.0), 100.0);
  // trace_period = 0: the last step holds forever.
  EXPECT_DOUBLE_EQ(link.bandwidth_at(100.0), 100.0);
}

TEST(Link, BandwidthTraceLoopsWithPeriod) {
  Simulation sim;
  Link::Params p;
  p.latency = 0.0;
  p.bandwidth_trace = {{0.0, 1000.0}, {1.0, 100.0}};
  p.trace_period = 2.0;
  Link link(sim, p);
  EXPECT_DOUBLE_EQ(link.bandwidth_at(0.5), 1000.0);
  EXPECT_DOUBLE_EQ(link.bandwidth_at(1.5), 100.0);
  EXPECT_DOUBLE_EQ(link.bandwidth_at(2.5), 1000.0);  // wrapped
  EXPECT_DOUBLE_EQ(link.bandwidth_at(3.5), 100.0);
}

TEST(Link, BandwidthSagQueuesTrafficBehindIt) {
  Simulation sim;
  Link::Params p;
  p.latency = 0.0;
  // 1000 B/s for the first second, then a sag to 100 B/s.
  p.bandwidth_trace = {{0.0, 1000.0}, {1.0, 100.0}};
  Link link(sim, p);
  double first = -1, second = -1;
  // First message fills the fast window exactly; the second transmits
  // entirely inside the sag (bandwidth sampled at transmission start) and
  // queues behind the first: 1.0 + 500/100 = 6.0.
  link.deliver([&] { first = sim.now(); }, 1000);
  link.deliver([&] { second = sim.now(); }, 500);
  sim.run();
  EXPECT_DOUBLE_EQ(first, 1.0);
  EXPECT_DOUBLE_EQ(second, 6.0);
}

TEST(Link, DownLinkDropsMessages) {
  Simulation sim;
  Link link(sim, lan_profile());
  link.set_down(true);
  bool arrived = false;
  EXPECT_FALSE(link.deliver([&] { arrived = true; }));
  sim.run();
  EXPECT_FALSE(arrived);
  EXPECT_EQ(link.dropped(), 1u);
  link.set_down(false);
  EXPECT_TRUE(link.deliver([&] { arrived = true; }));
  sim.run();
  EXPECT_TRUE(arrived);
}

TEST(Link, ProfilesAreOrdered) {
  // IPC < LAN < WAN in latency; WAN has jitter.
  EXPECT_LT(ipc_profile().latency, lan_profile().latency);
  EXPECT_LT(lan_profile().latency, wan_profile().latency);
  EXPECT_GT(wan_profile().jitter, 0.0);
  EXPECT_DOUBLE_EQ(lan_profile().jitter, 0.0);
}

TEST(Link, CellularProfileShape) {
  Link::Params p = cellular_profile();
  EXPECT_GT(p.jitter, 0.0);
  ASSERT_GE(p.bandwidth_trace.size(), 3u);
  EXPECT_GT(p.trace_period, 0.0);
  // The trace must actually sag: min step rate well below max step rate.
  double lo = p.bandwidth_trace[0].bytes_per_second;
  double hi = lo;
  for (const auto& s : p.bandwidth_trace) {
    lo = std::min(lo, s.bytes_per_second);
    hi = std::max(hi, s.bytes_per_second);
  }
  EXPECT_LT(lo * 4.0, hi);
}

}  // namespace
}  // namespace sbroker::sim
