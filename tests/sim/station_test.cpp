#include "sim/station.h"

#include <gtest/gtest.h>

#include <vector>

namespace sbroker::sim {
namespace {

TEST(BoundedStation, RunsUpToCapacityConcurrently) {
  Simulation sim;
  BoundedStation station(sim, 2);
  std::vector<double> completions;
  for (int i = 0; i < 4; ++i) {
    station.submit(1.0, [&] { completions.push_back(sim.now()); });
  }
  EXPECT_EQ(station.busy(), 2u);
  EXPECT_EQ(station.queued(), 2u);
  sim.run();
  // Two finish at t=1, two queued start then and finish at t=2.
  ASSERT_EQ(completions.size(), 4u);
  EXPECT_DOUBLE_EQ(completions[0], 1.0);
  EXPECT_DOUBLE_EQ(completions[1], 1.0);
  EXPECT_DOUBLE_EQ(completions[2], 2.0);
  EXPECT_DOUBLE_EQ(completions[3], 2.0);
  EXPECT_EQ(station.completions(), 4u);
}

TEST(BoundedStation, QueueLimitRejects) {
  Simulation sim;
  BoundedStation station(sim, 1, 1);
  EXPECT_TRUE(station.submit(1.0, [] {}));   // in service
  EXPECT_TRUE(station.would_accept());
  EXPECT_TRUE(station.submit(1.0, [] {}));   // queued
  EXPECT_FALSE(station.would_accept());
  EXPECT_FALSE(station.submit(1.0, [] {}));  // rejected
  EXPECT_EQ(station.rejections(), 1u);
  sim.run();
  EXPECT_EQ(station.completions(), 2u);
}

TEST(BoundedStation, OutstandingTracksBusyPlusQueued) {
  Simulation sim;
  BoundedStation station(sim, 1);
  station.submit(1.0, [] {});
  station.submit(1.0, [] {});
  EXPECT_EQ(station.outstanding(), 2u);
  sim.run_until(1.0);
  EXPECT_EQ(station.outstanding(), 1u);
  sim.run();
  EXPECT_EQ(station.outstanding(), 0u);
}

TEST(BoundedStation, FifoOrderWithinQueue) {
  Simulation sim;
  BoundedStation station(sim, 1);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    station.submit(1.0, [&, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

}  // namespace
}  // namespace sbroker::sim
