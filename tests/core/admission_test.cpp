#include "core/admission.h"

#include <gtest/gtest.h>

namespace sbroker::core {
namespace {

TEST(Admission, ForwardsUnderBound) {
  AdmissionController ctl(QosRules{3, 20.0});
  EXPECT_EQ(ctl.decide(1, 0.0), AdmissionDecision::kForward);
  EXPECT_EQ(ctl.forwarded(), 1u);
}

TEST(Admission, DropsOverBound) {
  AdmissionController ctl(QosRules{3, 20.0});
  EXPECT_EQ(ctl.decide(1, 7.0), AdmissionDecision::kDropOverLimit);
  EXPECT_EQ(ctl.decide(3, 7.0), AdmissionDecision::kForward);
  EXPECT_EQ(ctl.dropped_over_limit(), 1u);
}

TEST(Admission, LevelsOutsideRangeClamp) {
  AdmissionController ctl(QosRules{3, 20.0});
  EXPECT_EQ(ctl.decide(99, 19.0), AdmissionDecision::kForward);   // clamps to 3
  EXPECT_EQ(ctl.decide(-1, 7.0), AdmissionDecision::kDropOverLimit);  // clamps to 1
}

TEST(Admission, DecisionNames) {
  EXPECT_STREQ(admission_decision_name(AdmissionDecision::kForward), "forward");
  EXPECT_STREQ(admission_decision_name(AdmissionDecision::kDropOverLimit),
               "drop-over-limit");
}

// Property sweep: drop ratio ordering across classes for rising load.
class AdmissionSweep : public ::testing::TestWithParam<double> {};

TEST_P(AdmissionSweep, HigherClassNeverDroppedMoreAtSameLoad) {
  double threshold = GetParam();
  AdmissionController ctl(QosRules{3, threshold});
  for (double load = 0; load < threshold + 5; load += 0.25) {
    bool admit1 = ctl.decide(1, load) == AdmissionDecision::kForward;
    bool admit2 = ctl.decide(2, load) == AdmissionDecision::kForward;
    bool admit3 = ctl.decide(3, load) == AdmissionDecision::kForward;
    EXPECT_LE(admit1, admit2);
    EXPECT_LE(admit2, admit3);
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, AdmissionSweep,
                         ::testing::Values(5.0, 20.0, 100.0));

}  // namespace
}  // namespace sbroker::core
