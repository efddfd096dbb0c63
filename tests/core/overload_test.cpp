#include "core/overload.h"

#include <gtest/gtest.h>

#include "core/admission.h"
#include "core/centralized.h"

namespace sbroker::core {
namespace {

constexpr QosRules kRules{3, 20.0};

OverloadConfig aimd_config() {
  OverloadConfig config;
  config.policy = OverloadPolicy::kAimd;
  config.eval_interval = 0.05;
  config.min_samples = 8;
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
  EXPECT_EQ(parse_overload_policy("static"), OverloadPolicy::kStatic);
  EXPECT_EQ(parse_overload_policy("aimd"), OverloadPolicy::kAimd);
  EXPECT_EQ(parse_overload_policy("aimd+lifo"), OverloadPolicy::kAimd);
  EXPECT_FALSE(parse_overload_policy("bogus").has_value());
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
  auto ctl = make_overload_controller(OverloadConfig{}, kRules);
  EXPECT_EQ(ctl->policy(), OverloadPolicy::kStatic);
  EXPECT_FALSE(ctl->wants_feedback());

  auto aimd = make_overload_controller(aimd_config(), kRules);
  EXPECT_EQ(aimd->policy(), OverloadPolicy::kAimd);
  EXPECT_TRUE(aimd->wants_feedback());
}

TEST(StaticController, ThresholdNeverMovesUnderAnySignal) {
  OverloadConfig config;
  config.lifo = true;  // feedback runs for the mode, not the threshold
  StaticOverloadController ctl(config, kRules);
  double now = 0.0;
  for (int i = 0; i < 50; ++i) {
    ctl.observe(signal(10.0), now);  // hopeless breach every interval
    now += config.eval_interval;
  }
  EXPECT_DOUBLE_EQ(ctl.threshold(), kRules.threshold);
  EXPECT_TRUE(ctl.overloaded());  // the mode still reacted
  EXPECT_EQ(ctl.stats().increases, 0u);
  EXPECT_EQ(ctl.stats().decreases, 0u);
}

TEST(AimdController, MultiplicativeDecreaseOnBreach) {
  OverloadConfig config = aimd_config();
  AimdOverloadController ctl(config, kRules);
  EXPECT_DOUBLE_EQ(ctl.threshold(), 20.0);
  ctl.observe(signal(1.0), 0.0);  // p95 1s >> target 50ms
  EXPECT_DOUBLE_EQ(ctl.threshold(), 20.0 * config.decrease);
  EXPECT_EQ(ctl.stats().decreases, 1u);
  ctl.observe(signal(1.0), 0.05);
  EXPECT_DOUBLE_EQ(ctl.threshold(), 20.0 * config.decrease * config.decrease);
}

TEST(AimdController, DecreaseStopsAtFloor) {
  OverloadConfig config = aimd_config();
  config.floor = 2.0;
  AimdOverloadController ctl(config, kRules);
  double now = 0.0;
  for (int i = 0; i < 100; ++i) {
    ctl.observe(signal(1.0), now);
    now += config.eval_interval;
  }
  EXPECT_DOUBLE_EQ(ctl.threshold(), 2.0);
  // Cuts already at the floor are not counted as decreases.
  EXPECT_LT(ctl.stats().decreases, 100u);
}

TEST(AimdController, AdditiveIncreaseUpToCeiling) {
  OverloadConfig config = aimd_config();
  config.ceiling = 25.0;
  AimdOverloadController ctl(config, kRules);
  double now = 0.0;
  for (int i = 0; i < 100; ++i) {
    ctl.observe(signal(0.001), now);  // far under target: clear interval
    now += config.eval_interval;
  }
  EXPECT_DOUBLE_EQ(ctl.threshold(), 25.0);
  EXPECT_GT(ctl.stats().increases, 0u);
  EXPECT_EQ(ctl.stats().decreases, 0u);
}

TEST(AimdController, DefaultCeilingIsFourTimesRulesThreshold) {
  AimdOverloadController ctl(aimd_config(), kRules);
  double now = 0.0;
  for (int i = 0; i < 200; ++i) {
    ctl.observe(signal(0.001), now);
    now += 0.05;
  }
  EXPECT_DOUBLE_EQ(ctl.threshold(), 80.0);
}

// Closed-loop model: queue wait is proportional to the backlog the
// threshold lets in (p95 ~= threshold * 10ms per queued request). With a
// 150ms budget and the default 0.5 budget fraction the target is 75ms, so
// the controller must converge into a band around threshold ~= 7.5 and
// oscillate there — the AIMD sawtooth — instead of pinning to an extreme.
TEST(AimdController, ConvergesToTheLatencyTarget) {
  AimdOverloadController ctl(aimd_config(), kRules);
  double now = 0.0;
  for (int i = 0; i < 400; ++i) {
    double modeled_p95 = ctl.threshold() * 0.010;
    ctl.observe(signal(modeled_p95, 100, 0.150), now);
    now += 0.05;
  }
  EXPECT_GT(ctl.threshold(), 3.0);
  EXPECT_LT(ctl.threshold(), 12.0);
  EXPECT_GT(ctl.stats().increases, 0u);
  EXPECT_GT(ctl.stats().decreases, 0u);
  // The live bound the admit rule sees follows the adapted threshold.
  EXPECT_DOUBLE_EQ(ctl.bound(3), ctl.threshold());
}

TEST(Hysteresis, EntersOnlyAfterConsecutiveBreaches) {
  OverloadConfig config = aimd_config();
  config.enter_breaches = 2;
  config.exit_clears = 4;
  AimdOverloadController ctl(config, kRules);
  ctl.observe(signal(1.0), 0.0);
  EXPECT_FALSE(ctl.overloaded());  // one breach is not a streak
  ctl.observe(signal(1.0), 0.05);
  EXPECT_TRUE(ctl.overloaded());
  EXPECT_EQ(ctl.stats().enters, 1u);
}

TEST(Hysteresis, AlternatingSignalNeverOscillatesTheMode) {
  OverloadConfig config = aimd_config();
  config.enter_breaches = 2;
  config.exit_clears = 4;
  AimdOverloadController ctl(config, kRules);
  double now = 0.0;
  for (int i = 0; i < 100; ++i) {
    // breach, clear, breach, clear ... — no streak ever reaches 2 breaches
    // or 4 clears, so the mode must never engage and never flap.
    ctl.observe(signal(i % 2 == 0 ? 1.0 : 0.001), now);
    now += 0.05;
  }
  EXPECT_FALSE(ctl.overloaded());
  EXPECT_EQ(ctl.stats().enters, 0u);
  EXPECT_EQ(ctl.stats().exits, 0u);
}

TEST(Hysteresis, ExitNeedsTheFullClearStreak) {
  OverloadConfig config = aimd_config();
  config.lifo = true;
  config.enter_breaches = 2;
  config.exit_clears = 4;
  AimdOverloadController ctl(config, kRules);
  double now = 0.0;
  for (int i = 0; i < 3; ++i) {
    ctl.observe(signal(1.0), now);
    now += 0.05;
  }
  ASSERT_TRUE(ctl.overloaded());
  EXPECT_TRUE(ctl.lifo_active());
  for (int i = 0; i < 3; ++i) {
    ctl.observe(signal(0.001), now);
    now += 0.05;
    EXPECT_TRUE(ctl.overloaded()) << "left after only " << i + 1 << " clears";
  }
  ctl.observe(signal(0.001), now);
  EXPECT_FALSE(ctl.overloaded());
  EXPECT_FALSE(ctl.lifo_active());
  EXPECT_EQ(ctl.stats().enters, 1u);
  EXPECT_EQ(ctl.stats().exits, 1u);
}

TEST(OverloadGates, ThinIntervalsCarryNoSignal) {
  OverloadConfig config = aimd_config();
  config.min_samples = 8;
  config.enter_breaches = 2;
  AimdOverloadController ctl(config, kRules);
  double now = 0.0;
  // Breach with too few samples: threshold, mode and streaks all untouched.
  ctl.observe(signal(1.0, 100), now);
  now += 0.05;
  ctl.observe(signal(1.0, 7), now);  // below min_samples — must be a no-op
  now += 0.05;
  EXPECT_DOUBLE_EQ(ctl.threshold(), 20.0 * config.decrease);
  EXPECT_FALSE(ctl.overloaded());
  EXPECT_EQ(ctl.stats().evals, 1u);
  // The thin interval must not have reset the breach streak either: the
  // next full breach completes enter_breaches = 2.
  ctl.observe(signal(1.0, 100), now);
  EXPECT_TRUE(ctl.overloaded());
}

TEST(OverloadGates, NoDeadlineMeansNoTarget) {
  AimdOverloadController ctl(aimd_config(), kRules);
  // budget 0 and no configured target_p95: nothing to compare p95 against.
  ctl.observe(signal(10.0, 100, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(ctl.threshold(), 20.0);
  EXPECT_EQ(ctl.stats().evals, 0u);
}

TEST(OverloadGates, AbsoluteTargetOverridesBudget) {
  OverloadConfig config = aimd_config();
  config.target_p95 = 0.02;
  AimdOverloadController ctl(config, kRules);
  // p95 30ms breaches the absolute 20ms target even with no budget at all.
  ctl.observe(signal(0.030, 100, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(ctl.threshold(), 20.0 * config.decrease);
}

// The refactor's point: AdmissionController routes decide() through the
// controller's live threshold, so feedback that shrinks the threshold
// makes previously-admitted loads drop.
TEST(AdmissionRouting, DecideFollowsTheLiveThreshold) {
  AdmissionController admission(kRules, aimd_config());
  EXPECT_EQ(admission.decide(3, 15.0), AdmissionDecision::kForward);
  // Feed hopeless breaches until the threshold drops under 15.
  double now = 0.0;
  OverloadController& ctl = admission.overload();
  while (ctl.threshold() > 15.0) {
    ctl.observe(signal(1.0), now);
    now += 0.05;
  }
  EXPECT_EQ(admission.decide(3, 15.0), AdmissionDecision::kDropOverLimit);
  EXPECT_EQ(admission.decide(3, 1.0), AdmissionDecision::kForward);
}

TEST(AdmissionRouting, CentralizedAdmitUsesAController) {
  CentralizedController central(kRules, 0.0, aimd_config());
  EXPECT_DOUBLE_EQ(central.overload().threshold(), kRules.threshold);
}

}  // namespace
}  // namespace sbroker::core
