#include "core/overload.h"

#include <gtest/gtest.h>

#include "core/centralized.h"

namespace sbroker::core {
namespace {

constexpr QosRules kRules{3, 20.0};

OverloadConfig aimd_config() {
  OverloadConfig config;
  config.policy = OverloadPolicy::kAimd;
  return config;
}

/// A signal that clearly breaches (p95 over budget) or clears the target.
OverloadSignal signal(double p95, uint64_t samples = 100,
                      double budget = 0.1) {
  OverloadSignal s;
  s.p95 = p95;
  s.samples = samples;
  s.budget = budget;
  return s;
}

TEST(OverloadPolicyNames, RoundTrip) {
  EXPECT_STREQ(overload_policy_name(OverloadPolicy::kStatic), "static");
  EXPECT_STREQ(overload_policy_name(OverloadPolicy::kAimd), "aimd");
  EXPECT_EQ(parse_overload_spec("static")->policy, OverloadPolicy::kStatic);
  EXPECT_EQ(parse_overload_spec("aimd")->policy, OverloadPolicy::kAimd);
  EXPECT_EQ(parse_overload_spec("aimd+lifo")->policy, OverloadPolicy::kAimd);
  EXPECT_EQ(parse_overload_spec("lifo")->policy, OverloadPolicy::kAimd);
  EXPECT_FALSE(parse_overload_spec("bogus").has_value());
}

TEST(OverloadSpec, ParsesPolicyAndLifoFlag) {
  auto s = parse_overload_spec("static");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->policy, OverloadPolicy::kStatic);
  EXPECT_FALSE(s->lifo);

  s = parse_overload_spec("aimd+lifo");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->policy, OverloadPolicy::kAimd);
  EXPECT_TRUE(s->lifo);

  s = parse_overload_spec("static+lifo");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->policy, OverloadPolicy::kStatic);
  EXPECT_TRUE(s->lifo);

  EXPECT_FALSE(parse_overload_spec("nope").has_value());
}

TEST(OverloadFactory, BuildsTheRequestedPolicy) {
  OverloadController ctl(kRules);
  EXPECT_EQ(ctl.policy(), OverloadPolicy::kStatic);
  EXPECT_FALSE(ctl.wants_feedback());

  OverloadController aimd(kRules, aimd_config());
  EXPECT_EQ(aimd.policy(), OverloadPolicy::kAimd);
  EXPECT_TRUE(aimd.wants_feedback());
}

TEST(StaticController, ThresholdNeverMovesUnderAnySignal) {
  OverloadConfig config;
  config.lifo = true;  // feedback runs for the mode, not the threshold
  OverloadController ctl(kRules, config);
  for (int i = 0; i < 50; ++i) {
    ctl.observe(signal(10.0));  // hopeless breach every interval
  }
  EXPECT_DOUBLE_EQ(ctl.threshold(), kRules.threshold);
  EXPECT_TRUE(ctl.overloaded());  // the mode still reacted
  EXPECT_EQ(ctl.stats().increases, 0u);
  EXPECT_EQ(ctl.stats().decreases, 0u);
}

TEST(AimdController, MultiplicativeDecreaseOnBreach) {
  OverloadController ctl(kRules, aimd_config());
  EXPECT_DOUBLE_EQ(ctl.threshold(), 20.0);
  ctl.observe(signal(1.0));  // p95 1s >> target 50ms
  EXPECT_DOUBLE_EQ(ctl.threshold(), 20.0 * kDecrease);
  EXPECT_EQ(ctl.stats().decreases, 1u);
  ctl.observe(signal(1.0));
  EXPECT_DOUBLE_EQ(ctl.threshold(), 20.0 * kDecrease * kDecrease);
}

TEST(AimdController, DecreaseStopsAtFloor) {
  OverloadController ctl(kRules, aimd_config());
  for (int i = 0; i < 100; ++i) {
    ctl.observe(signal(1.0));
  }
  EXPECT_DOUBLE_EQ(ctl.threshold(), 1.0);  // kFloor
  // Cuts already at the floor are not counted as decreases.
  EXPECT_LT(ctl.stats().decreases, 100u);
}

TEST(AimdController, AdditiveIncreaseUpToCeiling) {
  // Threshold 5: the ceiling 4 x 5 = 20 is reached after 15 raises.
  OverloadController ctl(QosRules{3, 5.0}, aimd_config());
  for (int i = 0; i < 100; ++i) {
    ctl.observe(signal(0.001));  // far under target: clear interval
  }
  EXPECT_DOUBLE_EQ(ctl.threshold(), 20.0);
  EXPECT_EQ(ctl.stats().increases, 15u);
  EXPECT_EQ(ctl.stats().decreases, 0u);
}

TEST(AimdController, DefaultCeilingIsFourTimesRulesThreshold) {
  OverloadController ctl(kRules, aimd_config());
  for (int i = 0; i < 200; ++i) {
    ctl.observe(signal(0.001));
  }
  EXPECT_DOUBLE_EQ(ctl.threshold(), 80.0);
}

// Closed-loop model: queue wait is proportional to the backlog the
// threshold lets in (p95 ~= threshold * 10ms per queued request). With a
// 150ms budget and the 0.5 budget fraction the target is 75ms, so
// the controller must converge into a band around threshold ~= 7.5 and
// oscillate there — the AIMD sawtooth — instead of pinning to an extreme.
TEST(AimdController, ConvergesToTheLatencyTarget) {
  OverloadController ctl(kRules, aimd_config());
  for (int i = 0; i < 400; ++i) {
    double modeled_p95 = ctl.threshold() * 0.010;
    ctl.observe(signal(modeled_p95, 100, 0.150));
  }
  EXPECT_GT(ctl.threshold(), 3.0);
  EXPECT_LT(ctl.threshold(), 12.0);
  EXPECT_GT(ctl.stats().increases, 0u);
  EXPECT_GT(ctl.stats().decreases, 0u);
  // The live bound the admit rule sees follows the adapted threshold.
  EXPECT_DOUBLE_EQ(ctl.bound(3), ctl.threshold());
}

TEST(Hysteresis, EntersOnlyAfterConsecutiveBreaches) {
  OverloadController ctl(kRules, aimd_config());
  ctl.observe(signal(1.0));
  EXPECT_FALSE(ctl.overloaded());  // one breach is not a streak
  ctl.observe(signal(1.0));
  EXPECT_TRUE(ctl.overloaded());
  EXPECT_EQ(ctl.stats().enters, 1u);
}

TEST(Hysteresis, AlternatingSignalNeverOscillatesTheMode) {
  OverloadController ctl(kRules, aimd_config());
  for (int i = 0; i < 100; ++i) {
    // breach, clear, breach, clear ... — no streak ever reaches 2 breaches
    // or 4 clears, so the mode must never engage and never flap.
    ctl.observe(signal(i % 2 == 0 ? 1.0 : 0.001));
  }
  EXPECT_FALSE(ctl.overloaded());
  EXPECT_EQ(ctl.stats().enters, 0u);
  EXPECT_EQ(ctl.stats().exits, 0u);
}

TEST(Hysteresis, ExitNeedsTheFullClearStreak) {
  OverloadConfig config = aimd_config();
  config.lifo = true;
  OverloadController ctl(kRules, config);
  for (int i = 0; i < 3; ++i) {
    ctl.observe(signal(1.0));
  }
  ASSERT_TRUE(ctl.overloaded());
  EXPECT_TRUE(ctl.lifo_active());
  for (int i = 0; i < 3; ++i) {
    ctl.observe(signal(0.001));
    EXPECT_TRUE(ctl.overloaded()) << "left after only " << i + 1 << " clears";
  }
  ctl.observe(signal(0.001));
  EXPECT_FALSE(ctl.overloaded());
  EXPECT_FALSE(ctl.lifo_active());
  EXPECT_EQ(ctl.stats().enters, 1u);
  EXPECT_EQ(ctl.stats().exits, 1u);
}

TEST(OverloadGates, ThinIntervalsCarryNoSignal) {
  OverloadController ctl(kRules, aimd_config());
  // Breach with too few samples: threshold, mode and streaks all untouched.
  ctl.observe(signal(1.0, 100));
  ctl.observe(signal(1.0, kMinSamples - 1));  // must be a no-op
  EXPECT_DOUBLE_EQ(ctl.threshold(), 20.0 * kDecrease);
  EXPECT_FALSE(ctl.overloaded());
  EXPECT_EQ(ctl.stats().evals, 1u);
  // The thin interval must not have reset the breach streak either: the
  // next full breach completes the two-breach entry streak.
  ctl.observe(signal(1.0, 100));
  EXPECT_TRUE(ctl.overloaded());
}

TEST(OverloadGates, NoDeadlineMeansNoTarget) {
  OverloadController ctl(kRules, aimd_config());
  // budget 0: nothing to derive a target from, nothing to compare p95 to.
  ctl.observe(signal(10.0, 100, 0.0));
  EXPECT_DOUBLE_EQ(ctl.threshold(), 20.0);
  EXPECT_EQ(ctl.stats().evals, 0u);
}

TEST(OverloadGates, TargetIsAFractionOfTheBudget) {
  OverloadController ctl(kRules, aimd_config());
  // A 40ms budget sets a 20ms target: p95 30ms breaches it...
  ctl.observe(signal(0.030, 100, 0.040));
  EXPECT_DOUBLE_EQ(ctl.threshold(), 20.0 * kDecrease);
  // ...and p95 15ms clears it.
  ctl.observe(signal(0.015, 100, 0.040));
  EXPECT_DOUBLE_EQ(ctl.threshold(), 20.0 * kDecrease + kIncrease);
}

// admit() compares against the live threshold, so feedback that shrinks the
// threshold makes previously-admitted loads drop.
TEST(AdmissionRouting, DecideFollowsTheLiveThreshold) {
  OverloadController ctl(kRules, aimd_config());
  EXPECT_TRUE(ctl.admit(3, 15.0));
  // Feed hopeless breaches until the threshold drops under 15.
  while (ctl.threshold() > 15.0) {
    ctl.observe(signal(1.0));
  }
  EXPECT_FALSE(ctl.admit(3, 15.0));
  EXPECT_TRUE(ctl.admit(3, 1.0));
}

// The centralized front door applies the same static rule as a broker: the
// top class is admitted strictly below the threshold.
TEST(AdmissionRouting, CentralizedAdmitUsesAController) {
  CentralizedController central(kRules);
  central.register_profile("/app", ResourceProfile{{"db"}});
  central.on_load_report("db", 19.0, 0.0);
  EXPECT_EQ(central.admit("/app", 3, 0.0),
            CentralizedController::Verdict::kAdmit);
  central.on_load_report("db", 20.0, 0.0);
  EXPECT_EQ(central.admit("/app", 3, 0.0),
            CentralizedController::Verdict::kRejectOverload);
}

}  // namespace
}  // namespace sbroker::core
