// Cross-cutting property tests: model-based checking of the cache, broker
// conservation across randomized configurations, and event-loop stress.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <ostream>
#include <vector>

#include "core/broker.h"
#include "core/cache.h"
#include "obs/observer.h"
#include "obs/trace.h"
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
// ResultCache against an executable spec. The model holds, per key, what the
// cache promises: value, store time, expiry, negative flag and refresh claim.
// It does not choose eviction victims. After an insert into a full stripe it
// finds the one entry that left and checks the documented bound instead: an
// entry stays resident until more than Cs - max(1, Cs/4) distinct other keys
// of its stripe have been stored or fresh-hit since its own last store or
// hit (Cs = per-stripe capacity). Every outcome and value, get_stale(),
// size() and every counter must equal the model's.

struct ModelEntry {
  std::string value;
  double stored_at = 0.0;
  double expires_at = 0.0;
  bool negative = false;
  bool resident = false;
  double claimed_at = -core::kClaimInf;  ///< when kStaleRefresh was last handed out
  uint64_t last_use = 0;                 ///< step of its last store or fresh hit
};

/// Past every expiry, kClaimInf (expiry disabled) included.
constexpr double kPastEveryExpiry = 1e301;

void check_cache_against_model(size_t stripes, size_t capacity, uint64_t seed) {
  using enum core::LookupOutcome;
  core::CacheTuning tuning;
  tuning.swr_grace = 0.5;
  tuning.ttl_jitter = 0.2;
  tuning.negative_ttl = 0.3;
  const double kTtl = 1.0;
  core::ResultCache cache(capacity, kTtl, stripes, tuning, core::ttl_salt(seed));
  const size_t per_stripe = (capacity + stripes - 1) / stripes;
  const size_t survives = per_stripe - std::max<size_t>(1, per_stripe / 4);
  auto stripe_of = [&](const std::string& key) {
    return std::hash<std::string_view>{}(key) % stripes;
  };
  std::map<std::string, ModelEntry> model;
  std::vector<size_t> resident(stripes, 0);
  uint64_t uses = 0, hits = 0, misses = 0, expired = 0, evictions = 0;
  std::map<core::LookupOutcome, int> outcomes;
  util::Rng rng(seed);
  core::Arena scratch;

  // Residency probe: a lookup past every expiry is a miss that counts in
  // expired() exactly when the key is resident, and changes nothing else.
  auto in_cache = [&](const std::string& key) {
    uint64_t before = cache.expired();
    scratch.reset();
    EXPECT_EQ(cache.lookup_into(key, kPastEveryExpiry, scratch).outcome, kMiss);
    ++misses;
    bool found = cache.expired() != before;
    expired += found;
    return found;
  };

  auto store = [&](const std::string& key, const std::string& value, double at,
                   bool negative, double ttl) {
    ModelEntry& e = model[key];
    if (e.resident && e.stored_at > at) return;  // last write wins
    bool inserted = !e.resident;
    e = ModelEntry{value, at, at + ttl, negative, true, -core::kClaimInf, ++uses};
    size_t s = stripe_of(key);
    if (!inserted) return;
    if (resident[s] < per_stripe) {
      ++resident[s];
      return;
    }
    // A full stripe evicts exactly one other entry, and only one the bound
    // lets go.
    ++evictions;
    const std::string* victim = nullptr;
    for (const auto& [k, other] : model) {
      if (!other.resident || k == key || stripe_of(k) != s || in_cache(k)) continue;
      ASSERT_EQ(victim, nullptr) << "both " << *victim << " and " << k << " left";
      victim = &k;
    }
    ASSERT_NE(victim, nullptr) << "stripe " << s << " holds more than " << per_stripe;
    ModelEntry& gone = model[*victim];
    size_t since = 0;
    for (const auto& [k, other] : model) {
      since += k != *victim && stripe_of(k) == s && other.last_use > gone.last_use;
    }
    EXPECT_GT(since, survives) << *victim << " evicted after " << since
                               << " distinct keys of its stripe";
    gone.resident = false;
  };

  double now = 0.0;
  for (int step = 0; step < 20000 && !::testing::Test::HasFailure(); ++step) {
    // A hot key comes back about once per TTL: fresh, stale and expired.
    now += rng.uniform_real(0.0, 1.0 / static_cast<double>(capacity));
    // Half the keys from a hot set the size of the cache, half from three
    // times that, so entries are hit, expire and are evicted.
    int64_t keys = static_cast<int64_t>(rng.next_double() < 0.5 ? capacity : 3 * capacity);
    std::string key = nth("k", static_cast<uint64_t>(rng.uniform_int(0, keys - 1)));
    std::string value = nth("v", static_cast<uint64_t>(step));
    ModelEntry& e = model[key];
    double op = rng.next_double();
    if (op < 0.3) {
      // One put in five carries an older stamp, as a slow prefetch does.
      double at = rng.next_double() < 0.2 ? now - rng.uniform_real(0.0, 0.5) : now;
      cache.put(key, value, at);
      double ttl = cache.effective_ttl(key);
      ASSERT_GE(ttl, kTtl * (1 - tuning.ttl_jitter));
      ASSERT_LE(ttl, kTtl * (1 + tuning.ttl_jitter));
      store(key, value, at, false, ttl);
    } else if (op < 0.4) {
      cache.put_negative(key, value, now);
      // Stale truth beats a fresh failure.
      if (!e.resident || e.negative) store(key, value, now, true, tuning.negative_ttl);
    } else if (op < 0.45) {
      std::optional<std::string> want;
      if (e.resident && !e.negative) want = e.value;
      ASSERT_EQ(cache.get_stale(key), want) << "step " << step << " key " << key;
    } else {
      scratch.reset();
      core::LookupView got = cache.lookup_into(key, now, scratch);
      core::LookupOutcome want = kMiss;
      if (e.resident && now <= e.expires_at) {
        want = e.negative ? kNegative : kHit;
        e.last_use = ++uses;
      } else if (e.resident && !e.negative && now - e.expires_at <= tuning.swr_grace) {
        // One refresh claim per key per grace window.
        want = now - e.claimed_at > tuning.swr_grace ? kStaleRefresh : kStaleServe;
        if (want == kStaleRefresh) e.claimed_at = now;
      } else {
        expired += e.resident;
      }
      (want == kMiss ? misses : hits) += 1;
      ++outcomes[want];
      ASSERT_EQ(got.outcome, want) << "step " << step << " key " << key;
      ASSERT_EQ(got.value, want == kMiss ? "" : e.value) << "step " << step;
    }
    size_t total = 0;
    for (size_t n : resident) total += n;
    ASSERT_EQ(cache.size(), total) << "step " << step;
    ASSERT_LE(cache.size(), cache.max_resident());
    ASSERT_EQ(cache.hits(), hits) << "step " << step;
    ASSERT_EQ(cache.misses(), misses) << "step " << step;
    ASSERT_EQ(cache.expired(), expired) << "step " << step;
    ASSERT_EQ(cache.evictions(), evictions) << "step " << step;
  }
  for (core::LookupOutcome o : {kMiss, kHit, kNegative, kStaleServe, kStaleRefresh}) {
    EXPECT_GT(outcomes[o], 0) << "outcome " << static_cast<int>(o) << " never seen";
  }
  EXPECT_GT(evictions, 0u);
}

TEST(Properties, CacheAgreesWithReferenceModel) {
  struct Shape { size_t stripes, capacity; };
  for (Shape shape : {Shape{1, 4}, Shape{1, 8}, Shape{1, 16}, Shape{1, 33},
                      Shape{8, 33}, Shape{8, 64}}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(testing::Message() << shape.stripes << " stripes, capacity "
                                      << shape.capacity << ", seed " << seed);
      check_cache_against_model(shape.stripes, shape.capacity, seed);
      if (HasFailure()) return;
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

  // The one terminal's oracle: one kTotal sample per reply in its class, and
  // one terminal trace event per request (background fetches end with
  // request id 0 and no reply), read from a ring that did not wrap.
  const obs::BrokerObserver& obs = broker.observer();
  for (int level = 1; level <= 3; ++level) {
    EXPECT_EQ(obs.histogram(level, obs::Stage::kTotal).count(),
              broker.metrics().at(level).completed)
        << "class " << level;
  }
  ASSERT_EQ(obs.recorder().dropped(), 0u);
  std::map<uint64_t, int> terminals;
  for (const obs::TraceEvent& e : obs.recorder().dump()) {
    if (e.request_id != 0 && obs::trace_event_terminal(e.kind)) {
      ++terminals[e.request_id];
    }
  }
  EXPECT_EQ(terminals.size(), kRequests);
  for (uint64_t i = 1; i <= kRequests; ++i) {
    EXPECT_EQ(terminals[i], 1) << "request " << i;
  }

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
