#include <gtest/gtest.h>

#include "core/centralized.h"
#include "core/metrics.h"

namespace sbroker::core {
namespace {

// --------------------------------------------------------------------------
// BrokerMetrics

TEST(Metrics, PerClassIsolation) {
  BrokerMetrics m(3);
  m.at(1).issued = 5;
  m.at(3).issued = 2;
  EXPECT_EQ(m.at(1).issued, 5u);
  EXPECT_EQ(m.at(2).issued, 0u);
  EXPECT_EQ(m.at(3).issued, 2u);
}

TEST(Metrics, LevelClamping) {
  BrokerMetrics m(3);
  m.at(0).issued = 1;    // clamps to 1
  m.at(99).issued = 2;   // clamps to 3
  EXPECT_EQ(m.at(1).issued, 1u);
  EXPECT_EQ(m.at(3).issued, 2u);
}

TEST(Metrics, DropRatio) {
  BrokerMetrics m(3);
  m.at(2).issued = 10;
  m.at(2).dropped = 3;
  EXPECT_DOUBLE_EQ(m.at(2).drop_ratio(), 0.3);
  EXPECT_DOUBLE_EQ(m.at(1).drop_ratio(), 0.0);  // 0/0
}

TEST(Metrics, TotalAggregates) {
  BrokerMetrics m(2);
  m.at(1).issued = 3;
  m.at(1).cache_hits = 1;
  m.at(2).issued = 4;
  m.at(2).retries = 2;
  auto total = m.total();
  EXPECT_EQ(total.issued, 7u);
  EXPECT_EQ(total.cache_hits, 1u);
  EXPECT_EQ(total.retries, 2u);
}

// --------------------------------------------------------------------------
// CentralizedController

CentralizedController make_controller(double staleness = 0.0) {
  CentralizedController ctl(QosRules{3, 20.0}, staleness);
  ctl.register_profile("/app", ResourceProfile{{"db", "mail"}});
  return ctl;
}

TEST(Centralized, AdmitsWhenAllServicesUnderBound) {
  auto ctl = make_controller();
  ctl.on_load_report("db", 2.0, 0.0);
  ctl.on_load_report("mail", 1.0, 0.0);
  EXPECT_EQ(ctl.admit("/app", 1, 1.0), CentralizedController::Verdict::kAdmit);
  EXPECT_EQ(ctl.admits(), 1u);
}

TEST(Centralized, RejectsWhenAnyServiceOverBound) {
  auto ctl = make_controller();
  ctl.on_load_report("db", 2.0, 0.0);
  ctl.on_load_report("mail", 10.0, 0.0);  // class-1 bound is 6.67
  EXPECT_EQ(ctl.admit("/app", 1, 1.0),
            CentralizedController::Verdict::kRejectOverload);
  // Higher class passes the same load.
  EXPECT_EQ(ctl.admit("/app", 3, 1.0), CentralizedController::Verdict::kAdmit);
}

TEST(Centralized, UnknownUrlRejected) {
  auto ctl = make_controller();
  EXPECT_EQ(ctl.admit("/nope", 3, 0.0),
            CentralizedController::Verdict::kRejectUnknownUrl);
}

TEST(Centralized, ColdStartAdmitsWhenStalenessDisabled) {
  auto ctl = make_controller(0.0);
  EXPECT_EQ(ctl.admit("/app", 1, 0.0), CentralizedController::Verdict::kAdmit);
}

TEST(Centralized, ColdStartRejectsWhenStalenessEnabled) {
  auto ctl = make_controller(5.0);
  EXPECT_EQ(ctl.admit("/app", 1, 0.0), CentralizedController::Verdict::kRejectStale);
}

TEST(Centralized, StaleReportRejected) {
  auto ctl = make_controller(5.0);
  ctl.on_load_report("db", 0.0, 0.0);
  ctl.on_load_report("mail", 0.0, 0.0);
  EXPECT_EQ(ctl.admit("/app", 1, 4.0), CentralizedController::Verdict::kAdmit);
  EXPECT_EQ(ctl.admit("/app", 1, 6.0), CentralizedController::Verdict::kRejectStale);
  // A fresh report recovers.
  ctl.on_load_report("db", 0.0, 6.0);
  ctl.on_load_report("mail", 0.0, 6.0);
  EXPECT_EQ(ctl.admit("/app", 1, 7.0), CentralizedController::Verdict::kAdmit);
}

TEST(Centralized, ListenerCostScalesWithReports) {
  auto ctl = make_controller();
  for (int i = 0; i < 1000; ++i) ctl.on_load_report("db", 1.0, i * 0.001);
  EXPECT_EQ(ctl.reports_processed(), 1000u);
  EXPECT_DOUBLE_EQ(ctl.listener_cpu_seconds(0.0001), 0.1);
}

TEST(Centralized, VerdictNames) {
  using V = CentralizedController::Verdict;
  EXPECT_STREQ(verdict_name(V::kAdmit), "admit");
  EXPECT_STREQ(verdict_name(V::kRejectOverload), "reject-overload");
  EXPECT_STREQ(verdict_name(V::kRejectUnknownUrl), "reject-unknown-url");
  EXPECT_STREQ(verdict_name(V::kRejectStale), "reject-stale");
}

}  // namespace
}  // namespace sbroker::core
