// Cross-cutting property tests: model-based checking of the cache, broker
// conservation across randomized configurations, and event-loop stress.
#include <gtest/gtest.h>

#include <map>
#include <ostream>

#include "core/broker.h"
#include "core/cache.h"
#include "sim/simulation.h"
#include "util/rng.h"

namespace sbroker {
namespace {

/// `prefix` followed by `n` in decimal. Built by appending: GCC 12 at -O2
/// reports a false -Wrestrict overlap for `"k" + std::to_string(n)`.
std::string nth(const char* prefix, uint64_t n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

// --------------------------------------------------------------------------
// ResultCache vs a reference model: same behaviour under random operations.
// The model tracks the full key->(value, stored_at) map without capacity
// limits; the cache must agree with the model whenever it *does* return a
// value, and must respect capacity and TTL always.

TEST(Properties, CacheAgreesWithReferenceModel) {
  const size_t kCapacity = 16;
  const double kTtl = 3.0;
  core::ResultCache cache(kCapacity, kTtl);
  std::map<std::string, std::pair<std::string, double>> model;
  util::Rng rng(1234);
  core::Arena scratch;
  double now = 0.0;

  for (int op = 0; op < 20000; ++op) {
    now += rng.uniform_real(0.0, 0.5);
    std::string key = nth("k", rng.uniform_int(0, 39));
    if (rng.next_double() < 0.5) {
      std::string value = nth("v", op);
      cache.put(key, value, now);
      model[key] = {value, now};
    } else {
      scratch.reset();
      core::LookupView looked = cache.lookup_into(key, now, scratch);
      ASSERT_LE(cache.size(), kCapacity);
      // No grace window and no negatives: every probe is a hit or a miss.
      ASSERT_TRUE(looked.outcome == core::LookupOutcome::kHit ||
                  looked.outcome == core::LookupOutcome::kMiss);
      if (looked.outcome == core::LookupOutcome::kHit) {
        // Anything returned must match the latest model write and be fresh.
        auto it = model.find(key);
        ASSERT_NE(it, model.end()) << "cache invented a value for " << key;
        EXPECT_EQ(looked.value, it->second.first);
        EXPECT_LE(now - it->second.second, kTtl);
      } else if (model.count(key) && now - model[key].second <= kTtl) {
        // A fresh model entry may be missing only via capacity eviction;
        // with 40 keys over capacity 16 that's expected — nothing to assert.
      }
      // Stale lookups must also never invent values.
      if (auto stale = cache.get_stale(key)) {
        ASSERT_TRUE(model.count(key));
        EXPECT_EQ(*stale, model[key].first);
      }
    }
  }
}

// --------------------------------------------------------------------------
// Broker conservation across randomized configurations.

class SlowFakeBackend : public core::Backend {
 public:
  explicit SlowFakeBackend(sim::Simulation& sim, double service) : sim_(sim), service_(service) {}
  void invoke(const Call&, Completion done) override {
    sim_.after(service_, [this, done = std::move(done)]() { done(sim_.now(), true, "r"); });
  }

 private:
  sim::Simulation& sim_;
  double service_;
};

struct ConservationCase {
  double threshold;
  size_t cluster_degree;
  bool cache;
  size_t dispatch_window;
  /// Prefetch entries and stale-while-revalidate: background fetches share
  /// the broker's load, queues and pool with the demand traffic.
  bool background = false;
};

// Names the case in --gtest_list_tests; without a printer gtest dumps the
// struct's bytes, padding included, and the listing differs per build.
void PrintTo(const ConservationCase& c, std::ostream* os) {
  *os << "threshold=" << c.threshold << ",cluster_degree=" << c.cluster_degree
      << ",cache=" << c.cache << ",window=" << c.dispatch_window;
  if (c.background) *os << ",background=1";
}

class ConservationSweep : public ::testing::TestWithParam<ConservationCase> {};

TEST_P(ConservationSweep, EveryRequestAnsweredExactlyOnce) {
  const ConservationCase& param = GetParam();
  sim::Simulation sim;
  core::BrokerConfig cfg;
  cfg.rules = core::QosRules{3, param.threshold};
  cfg.enable_cache = param.cache;
  cfg.cache_ttl = 0.5;
  cfg.cluster = core::ClusterConfig{param.cluster_degree, 0.01};
  cfg.dispatch_window = param.dispatch_window;
  if (param.background) cfg.cache_tuning.swr_grace = 0.5;
  core::ServiceBroker broker("b", cfg);
  broker.add_backend(std::make_shared<SlowFakeBackend>(sim, 0.05));
  if (param.background) {
    for (uint64_t k = 0; k < 17; k += 4) broker.prefetcher().add(nth("q", k), 0.3);
  }

  util::Rng rng(99);
  const uint64_t kRequests = 500;
  uint64_t replies = 0;
  std::map<uint64_t, int> reply_counts;

  for (uint64_t i = 1; i <= kRequests; ++i) {
    double at = rng.uniform_real(0.0, 5.0);
    sim.at(at, [&, i]() {
      http::BrokerRequest req;
      req.request_id = i;
      req.qos_level = static_cast<uint8_t>(1 + i % 3);
      req.payload = nth("q", i % 17);
      broker.submit(sim.now(), req, [&, i](const http::BrokerReply&) {
        ++replies;
        ++reply_counts[i];
      });
    });
  }
  // Periodic ticks flush deadline batches.
  for (int t = 0; t < 700; ++t) {
    sim.at(0.01 * t, [&]() { broker.tick(sim.now()); });
  }
  sim.run();

  EXPECT_EQ(replies, kRequests);
  for (const auto& [id, count] : reply_counts) {
    EXPECT_EQ(count, 1) << "request " << id << " answered " << count << " times";
  }
  EXPECT_EQ(broker.outstanding(), 0u);
  auto total = broker.metrics().total();
  EXPECT_EQ(total.issued, kRequests);
  EXPECT_EQ(total.completed, kRequests);
  EXPECT_EQ(total.forwarded + total.dropped + total.cache_hits + total.errors,
            total.issued);

  // Background fetches settle too, and every resource they held is back.
  const auto& bg = broker.metrics().background;
  if (param.background) {
    EXPECT_GT(bg.completed, 0u);
    EXPECT_GT(broker.metrics().flight.refreshes, 0u);
  }
  EXPECT_EQ(bg.issued, bg.completed + bg.dropped + bg.failed);
  EXPECT_EQ(broker.load_tracker().load(), 0.0);
  EXPECT_EQ(broker.connection_pool().in_flight_total(), 0u);
  EXPECT_EQ(broker.balancer().outstanding(0), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ConservationSweep,
    ::testing::Values(ConservationCase{1e9, 1, false, 0},   // plain forward
                      ConservationCase{1e9, 4, false, 0},   // clustering
                      ConservationCase{1e9, 4, true, 0},    // clustering + cache
                      ConservationCase{5.0, 1, false, 0},   // heavy dropping
                      ConservationCase{5.0, 3, true, 2, true},  // everything at once
                      ConservationCase{1e9, 1, false, 1},   // tight window
                      ConservationCase{20.0, 8, true, 4, true}));

// --------------------------------------------------------------------------
// Simulator stress: a large randomized event soup preserves time order.

TEST(Properties, SimulationTimeNeverGoesBackwards) {
  sim::Simulation sim;
  util::Rng rng(5);
  double last_seen = -1.0;
  int fired = 0;
  std::function<void(int)> spawn = [&](int depth) {
    double t = sim.now();
    EXPECT_GE(t, last_seen);
    last_seen = t;
    ++fired;
    if (depth <= 0) return;
    int children = static_cast<int>(rng.uniform_int(0, 2));
    for (int c = 0; c < children; ++c) {
      sim.after(rng.uniform_real(0.0, 1.0), [&, depth]() { spawn(depth - 1); });
    }
  };
  for (int i = 0; i < 200; ++i) {
    sim.at(rng.uniform_real(0.0, 10.0), [&]() { spawn(8); });
  }
  sim.run();
  EXPECT_GT(fired, 200);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Properties, CancelledEventsNeverFireUnderStress) {
  sim::Simulation sim;
  util::Rng rng(6);
  int cancelled_fired = 0;
  std::vector<sim::EventId> to_cancel;
  for (int i = 0; i < 1000; ++i) {
    bool will_cancel = rng.next_double() < 0.5;
    sim::EventId id = sim.at(rng.uniform_real(0.0, 10.0), [&, will_cancel]() {
      if (will_cancel) ++cancelled_fired;
    });
    if (will_cancel) to_cancel.push_back(id);
  }
  for (sim::EventId id : to_cancel) sim.cancel(id);
  sim.run();
  EXPECT_EQ(cancelled_fired, 0);
}

}  // namespace
}  // namespace sbroker
