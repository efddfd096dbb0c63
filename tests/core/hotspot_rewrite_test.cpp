#include <gtest/gtest.h>

#include "core/broker.h"
#include "core/hotspot.h"
#include "core/rewrite.h"
#include "db/parser.h"

namespace sbroker::core {
namespace {

/// `prefix` followed by `n` in decimal. Built by appending: GCC 12 at -O2
/// reports a false -Wrestrict overlap for `"k" + std::to_string(n)`.
std::string nth(const char* prefix, uint64_t n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

// --------------------------------------------------------------------------
// HotSpotDetector

HotSpotConfig fast_config() {
  HotSpotConfig cfg;
  cfg.warm_threshold = 10.0;
  cfg.hot_threshold = 18.0;
  return cfg;
}

/// Feeds `sample` until the EWMA (weight kHotSpotAlpha = 0.2) has converged
/// on it: 0.8^60 leaves under 2e-6 of the old value. The EWMA moves
/// monotonically toward the sample, so every state on the way is visited.
LoadState settle(HotSpotDetector& d, double sample) {
  for (int i = 0; i < 60; ++i) d.observe(sample);
  return d.state();
}

TEST(HotSpot, StartsNormal) {
  HotSpotDetector d(fast_config());
  EXPECT_EQ(d.state(), LoadState::kNormal);
  EXPECT_EQ(d.observe(0.0), LoadState::kNormal);
}

TEST(HotSpot, EscalatesThroughWarmToHot) {
  HotSpotDetector d(fast_config());
  EXPECT_EQ(d.observe(12.0), LoadState::kWarm);  // the first sample primes
  EXPECT_EQ(settle(d, 20.0), LoadState::kHot);
}

TEST(HotSpot, JumpsStraightToHot) {
  HotSpotDetector d(fast_config());
  EXPECT_EQ(d.observe(25.0), LoadState::kHot);
}

TEST(HotSpot, HysteresisPreventsFlapping) {
  HotSpotDetector d(fast_config());
  d.observe(12.0);  // WARM
  // Settling just below the threshold but inside the hysteresis band stays WARM.
  EXPECT_EQ(settle(d, 9.5), LoadState::kWarm);
  EXPECT_NEAR(d.ewma(), 9.5, 1e-4);
  // Falling below warm*0.9 = 9.0 de-escalates.
  EXPECT_EQ(settle(d, 8.5), LoadState::kNormal);
}

TEST(HotSpot, HotDeescalatesToWarmThenNormal) {
  HotSpotDetector d(fast_config());
  d.observe(20.0);  // HOT
  EXPECT_EQ(settle(d, 15.0), LoadState::kWarm);  // below hot*0.9=16.2
  EXPECT_EQ(settle(d, 5.0), LoadState::kNormal);
}

TEST(HotSpot, EwmaSmoothsSpikes) {
  HotSpotDetector d(fast_config());
  d.observe(0.0);
  // One spike of 60 moves the EWMA only to 0.2 * 60 = 12 — WARM, not HOT.
  EXPECT_EQ(d.observe(60.0), LoadState::kWarm);
  EXPECT_NEAR(d.ewma(), 12.0, 1e-9);
}

TEST(HotSpot, TransitionCallbackFires) {
  // Normal -> Warm -> Hot -> Warm -> Normal: the EWMA walks down from HOT
  // through the WARM band on its way to zero.
  HotSpotDetector d(fast_config());
  EXPECT_EQ(d.state(), LoadState::kNormal);
  EXPECT_EQ(d.observe(12.0), LoadState::kWarm);
  EXPECT_EQ(settle(d, 20.0), LoadState::kHot);
  EXPECT_EQ(settle(d, 0.0), LoadState::kNormal);
  EXPECT_EQ(d.transitions(), 4u);
}

TEST(HotSpot, StateNames) {
  EXPECT_STREQ(load_state_name(LoadState::kNormal), "normal");
  EXPECT_STREQ(load_state_name(LoadState::kWarm), "warm");
  EXPECT_STREQ(load_state_name(LoadState::kHot), "hot");
}

// --------------------------------------------------------------------------
// QueryRewriter

RewriteConfig rw_config() {
  RewriteConfig cfg;
  cfg.enabled = true;
  return cfg;
}

TEST(Rewrite, DisabledPassesThrough) {
  QueryRewriter rw(RewriteConfig{}, QosRules{3, 20});
  auto out = rw.apply("SELECT * FROM t", 1, LoadState::kHot);
  EXPECT_FALSE(out.degraded);
  EXPECT_EQ(out.payload, "SELECT * FROM t");
}

TEST(Rewrite, NormalLoadNeverDegrades) {
  QueryRewriter rw(rw_config(), QosRules{3, 20});
  auto out = rw.apply("SELECT * FROM t", 1, LoadState::kNormal);
  EXPECT_FALSE(out.degraded);
}

TEST(Rewrite, WarmCapsLowClassesOnly) {
  QueryRewriter rw(rw_config(), QosRules{3, 20});
  auto low = rw.apply("SELECT * FROM t", 1, LoadState::kWarm);
  EXPECT_TRUE(low.degraded);
  EXPECT_EQ(db::parse_select(low.payload).limit, kWarmLimit);
  auto mid = rw.apply("SELECT * FROM t", 2, LoadState::kWarm);
  EXPECT_TRUE(mid.degraded);
  auto high = rw.apply("SELECT * FROM t", 3, LoadState::kWarm);
  EXPECT_FALSE(high.degraded);
}

TEST(Rewrite, HotCapsEveryClassButTop) {
  QueryRewriter rw(rw_config(), QosRules{3, 20});
  for (int level = 1; level <= 2; ++level) {
    auto out = rw.apply("SELECT * FROM t", level, LoadState::kHot);
    EXPECT_TRUE(out.degraded) << level;
    EXPECT_EQ(db::parse_select(out.payload).limit, kHotLimit);
  }
  EXPECT_FALSE(rw.apply("SELECT * FROM t", 3, LoadState::kHot).degraded);
}

TEST(Rewrite, ExistingTighterLimitKept) {
  QueryRewriter rw(rw_config(), QosRules{3, 20});
  auto out = rw.apply("SELECT * FROM t LIMIT 5", 1, LoadState::kHot);
  EXPECT_FALSE(out.degraded);  // already cheaper than the cap
}

TEST(Rewrite, ExistingLooserLimitClamped) {
  QueryRewriter rw(rw_config(), QosRules{3, 20});
  auto out = rw.apply("SELECT * FROM t LIMIT 5000", 1, LoadState::kHot);
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(db::parse_select(out.payload).limit, kHotLimit);
}

TEST(Rewrite, NonSqlPayloadUntouched) {
  QueryRewriter rw(rw_config(), QosRules{3, 20});
  auto out = rw.apply("/headlines", 1, LoadState::kHot);
  EXPECT_FALSE(out.degraded);
  EXPECT_EQ(out.payload, "/headlines");
}

TEST(Rewrite, PreservesPredicates) {
  QueryRewriter rw(rw_config(), QosRules{3, 20});
  auto out = rw.apply("SELECT id FROM t WHERE category = 3", 1, LoadState::kWarm);
  ASSERT_TRUE(out.degraded);
  db::SelectQuery q = db::parse_select(out.payload);
  ASSERT_TRUE(q.where.has_value());
  EXPECT_EQ(q.where->column, "category");
  EXPECT_EQ(q.where->literal.as_int(), 3);
}

// --------------------------------------------------------------------------
// Broker integration: degraded replies carry the kDegraded fidelity.

class CountingBackend : public Backend {
 public:
  void invoke(const Call& call, Completion done) override {
    payloads.push_back(call.payload);
    done(0.0, true, "ok");
  }
  std::vector<std::string> payloads;
};

TEST(BrokerFidelity, HotLoadDegradesLowClassQueries) {
  BrokerConfig cfg;
  cfg.rules = QosRules{3, 1000.0};  // no admission drops in this test
  cfg.enable_cache = false;
  cfg.rewrite.enabled = true;
  cfg.hotspot.warm_threshold = 1.0;
  cfg.hotspot.hot_threshold = 2.0;
  ServiceBroker broker("b", cfg);
  auto backend = std::make_shared<CountingBackend>();
  broker.add_backend(backend);

  // Force the detector HOT (the first sample primes the EWMA).
  broker.hotspot().observe(10.0);
  ASSERT_EQ(broker.load_state(), LoadState::kHot);

  http::BrokerRequest req;
  req.request_id = 1;
  req.qos_level = 1;
  req.payload = "SELECT * FROM t";
  http::BrokerReply reply;
  broker.submit(0.0, req, [&](const http::BrokerReply& r) { reply = r; });
  EXPECT_EQ(reply.fidelity, http::Fidelity::kDegraded);
  ASSERT_EQ(backend->payloads.size(), 1u);
  EXPECT_EQ(db::parse_select(backend->payloads[0]).limit, kHotLimit);
  EXPECT_EQ(broker.rewriter().rewrites(), 1u);
}

TEST(BrokerFidelity, LoadStateTracksOutstanding) {
  BrokerConfig cfg;
  cfg.rules = QosRules{3, 1000.0};
  cfg.enable_cache = false;
  // The five submits sample outstanding 1..5 and the drain 4..0. With
  // kHotSpotAlpha = 0.2 the EWMA reaches 2.64 on the fifth submit (HOT),
  // peaks at 2.93 and ends the drain at 1.92, below 0.9 * 2.2 (NORMAL).
  cfg.hotspot.warm_threshold = 2.2;
  cfg.hotspot.hot_threshold = 2.5;
  ServiceBroker broker("b", cfg);

  // Backend that never completes, so outstanding climbs.
  class StuckBackend : public Backend {
   public:
    void invoke(const Call&, Completion done) override { held.push_back(std::move(done)); }
    std::vector<Completion> held;
  };
  auto backend = std::make_shared<StuckBackend>();
  broker.add_backend(backend);

  for (uint64_t i = 1; i <= 5; ++i) {
    http::BrokerRequest req;
    req.request_id = i;
    req.qos_level = 3;
    req.payload = nth("q", i);
    broker.submit(0.0, req, [](const http::BrokerReply&) {});
  }
  EXPECT_EQ(broker.load_state(), LoadState::kHot);
  // Draining returns the state to NORMAL.
  for (auto& done : backend->held) done(1.0, true, "r");
  EXPECT_EQ(broker.load_state(), LoadState::kNormal);
}

}  // namespace
}  // namespace sbroker::core
