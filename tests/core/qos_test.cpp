#include "core/qos.h"

#include <gtest/gtest.h>

#include "core/overload.h"

namespace sbroker::core {
namespace {

// The admit comparison lives in OverloadController (core/overload.h);
// QosRules only carries the levels and the threshold. A static controller
// over the rules must reproduce the paper's rule exactly.

TEST(QosRules, BoundsScaleWithLevel) {
  OverloadController ctl(QosRules{3, 20.0});
  EXPECT_NEAR(ctl.bound(1), 20.0 / 3.0, 1e-9);
  EXPECT_NEAR(ctl.bound(2), 40.0 / 3.0, 1e-9);
  EXPECT_NEAR(ctl.bound(3), 20.0, 1e-9);
}

TEST(QosRules, TopClassAdmittedUpToThreshold) {
  OverloadController ctl(QosRules{3, 20.0});
  EXPECT_TRUE(ctl.admit(3, 19.0));
  EXPECT_FALSE(ctl.admit(3, 20.0));
}

TEST(QosRules, LowClassShedFirst) {
  OverloadController ctl(QosRules{3, 20.0});
  double outstanding = 10.0;
  EXPECT_FALSE(ctl.admit(1, outstanding));  // bound 6.67
  EXPECT_TRUE(ctl.admit(2, outstanding));   // bound 13.33
  EXPECT_TRUE(ctl.admit(3, outstanding));
}

TEST(QosRules, ZeroOutstandingAdmitsEveryone) {
  OverloadController ctl(QosRules{3, 20.0});
  for (int level = 1; level <= 3; ++level) EXPECT_TRUE(ctl.admit(level, 0.0));
}

TEST(QosRules, ClampLevel) {
  QosRules rules{3, 20.0};
  EXPECT_EQ(rules.clamp_level(0), 1);
  EXPECT_EQ(rules.clamp_level(-5), 1);
  EXPECT_EQ(rules.clamp_level(4), 3);
  EXPECT_EQ(rules.clamp_level(2), 2);
}

TEST(QosRules, OutOfRangeLevelUsesClampedBound) {
  OverloadController ctl(QosRules{3, 20.0});
  EXPECT_DOUBLE_EQ(ctl.bound(99), ctl.bound(3));
  EXPECT_DOUBLE_EQ(ctl.bound(-1), ctl.bound(1));
}

// The static controller's top-class bound is the configured threshold, and
// each class below it gets an equal step less.
TEST(QosRules, StaticControllerMatchesRulesBound) {
  for (int levels : {2, 3, 4, 8}) {
    QosRules rules{levels, 20.0};
    OverloadController ctl(rules);
    EXPECT_DOUBLE_EQ(ctl.threshold(), rules.threshold);
    EXPECT_DOUBLE_EQ(ctl.bound(levels), rules.threshold);
    for (int level = 1; level < levels; ++level) {
      EXPECT_NEAR(ctl.bound(level + 1) - ctl.bound(level), 20.0 / levels,
                  1e-9);
    }
  }
}

TEST(Admission, ForwardsUnderBound) {
  OverloadController ctl(QosRules{3, 20.0});
  EXPECT_TRUE(ctl.admit(1, 0.0));
}

TEST(Admission, DropsOverBound) {
  OverloadController ctl(QosRules{3, 20.0});
  EXPECT_FALSE(ctl.admit(1, 7.0));
  EXPECT_TRUE(ctl.admit(3, 7.0));
}

TEST(Admission, LevelsOutsideRangeClamp) {
  OverloadController ctl(QosRules{3, 20.0});
  EXPECT_TRUE(ctl.admit(99, 19.0));  // clamps to 3
  EXPECT_FALSE(ctl.admit(-1, 7.0));  // clamps to 1
}

// Property: admission is monotone — if a level admits at load x, every
// higher level admits at x, and it admits at every load below x.
class QosMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(QosMonotonicity, MonotoneInLevelAndLoad) {
  int levels = GetParam();
  OverloadController ctl(QosRules{levels, 20.0});
  for (double load = 0; load <= 25.0; load += 0.5) {
    for (int level = 1; level < levels; ++level) {
      if (ctl.admit(level, load)) {
        EXPECT_TRUE(ctl.admit(level + 1, load))
            << "level " << level + 1 << " rejected at load " << load;
      }
    }
    for (int level = 1; level <= levels; ++level) {
      if (ctl.admit(level, load) && load >= 1.0) {
        EXPECT_TRUE(ctl.admit(level, load - 1.0));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, QosMonotonicity, ::testing::Values(2, 3, 4, 8));

// Property sweep: drop ratio ordering across classes for rising load.
class AdmissionSweep : public ::testing::TestWithParam<double> {};

TEST_P(AdmissionSweep, HigherClassNeverDroppedMoreAtSameLoad) {
  double threshold = GetParam();
  OverloadController ctl(QosRules{3, threshold});
  for (double load = 0; load < threshold + 5; load += 0.25) {
    bool admit1 = ctl.admit(1, load);
    bool admit2 = ctl.admit(2, load);
    bool admit3 = ctl.admit(3, load);
    EXPECT_LE(admit1, admit2);
    EXPECT_LE(admit2, admit3);
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, AdmissionSweep,
                         ::testing::Values(5.0, 20.0, 100.0));

}  // namespace
}  // namespace sbroker::core
