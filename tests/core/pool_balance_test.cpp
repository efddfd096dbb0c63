#include <gtest/gtest.h>

#include <cmath>

#include "core/balance.h"
#include "core/pool.h"

namespace sbroker::core {
namespace {

// --------------------------------------------------------------------------
// ConnectionPool

TEST(Pool, PersistentReusesConnections) {
  ConnectionPool pool(PoolConfig{2, 4, true});
  auto a = pool.acquire();
  EXPECT_TRUE(a.granted);
  EXPECT_TRUE(a.fresh);  // first use opens
  pool.release(a.connection);
  auto b = pool.acquire();
  EXPECT_TRUE(b.granted);
  EXPECT_FALSE(b.fresh);  // reused
  EXPECT_EQ(pool.setups(), 1u);
}

TEST(Pool, MultiplexesBeforeOpeningNew) {
  ConnectionPool pool(PoolConfig{2, 4, true});
  auto a = pool.acquire();  // conn 0, fresh
  auto b = pool.acquire();  // conn 0 multiplexed (capacity 4)
  EXPECT_FALSE(b.fresh);
  EXPECT_EQ(b.connection, a.connection);
  EXPECT_EQ(pool.open_connections(), 1u);
}

TEST(Pool, OpensSecondConnectionWhenFirstSaturated) {
  ConnectionPool pool(PoolConfig{2, 2, true});
  pool.acquire();  // conn0: 1
  pool.acquire();  // conn0: 2 (full)
  auto c = pool.acquire();
  EXPECT_TRUE(c.fresh);
  EXPECT_EQ(c.connection, 1u);
  EXPECT_EQ(pool.setups(), 2u);
}

TEST(Pool, RejectsWhenAllSaturated) {
  ConnectionPool pool(PoolConfig{1, 2, true});
  pool.acquire();
  pool.acquire();
  auto lease = pool.acquire();
  EXPECT_FALSE(lease.granted);
  EXPECT_EQ(pool.rejections(), 1u);
}

TEST(Pool, LeastLoadedConnectionWins) {
  ConnectionPool pool(PoolConfig{2, 10, true});
  auto a = pool.acquire();  // conn0: 1
  pool.acquire();           // conn0: 2? No: least loaded with spare capacity is conn0
  // Saturate conn0 to force conn1 open, then release from conn0.
  ConnectionPool pool2(PoolConfig{2, 2, true});
  auto x = pool2.acquire();  // conn0:1
  pool2.acquire();           // conn0:2
  pool2.acquire();           // conn1:1 (fresh)
  pool2.release(x.connection);  // conn0:1
  auto y = pool2.acquire();
  EXPECT_FALSE(y.fresh);
  EXPECT_EQ(pool2.in_flight_total(), 3u);
  (void)a;
}

TEST(Pool, TracksPeakDepthAndMultiplexedAcquires) {
  ConnectionPool pool(PoolConfig{2, 4, true});
  auto a = pool.acquire();  // conn0: depth 1, fresh
  pool.acquire();           // conn0: depth 2, multiplexed
  pool.acquire();           // conn0: depth 3, multiplexed
  EXPECT_EQ(pool.peak_in_flight(), 3u);
  EXPECT_EQ(pool.multiplexed_acquires(), 2u);
  pool.release(a.connection);
  pool.acquire();  // back to depth 3: peak unchanged
  EXPECT_EQ(pool.peak_in_flight(), 3u);
  EXPECT_EQ(pool.multiplexed_acquires(), 3u);
}

TEST(Pool, NonPersistentAlwaysFresh) {
  ConnectionPool pool(PoolConfig{3, 64, false});
  auto a = pool.acquire();
  EXPECT_TRUE(a.fresh);
  pool.release(a.connection);
  auto b = pool.acquire();
  EXPECT_TRUE(b.fresh);  // API model: every access reconnects
  EXPECT_EQ(pool.setups(), 2u);
}

TEST(Pool, NonPersistentCapsConcurrentConnections) {
  ConnectionPool pool(PoolConfig{2, 64, false});
  pool.acquire();
  pool.acquire();
  EXPECT_FALSE(pool.acquire().granted);
  pool.release(0);
  EXPECT_TRUE(pool.acquire().granted);
}

// --------------------------------------------------------------------------
// LoadBalancer

TEST(Balance, RoundRobinCycles) {
  LoadBalancer lb(BalancePolicy::kRoundRobin);
  lb.add_backend();
  lb.add_backend();
  lb.add_backend();
  EXPECT_EQ(lb.pick(), 0u);
  EXPECT_EQ(lb.pick(), 1u);
  EXPECT_EQ(lb.pick(), 2u);
  EXPECT_EQ(lb.pick(), 0u);
}

TEST(Balance, PickWithNoBackendsIsNullopt) {
  LoadBalancer lb(BalancePolicy::kRandom);
  EXPECT_FALSE(lb.pick().has_value());
}

TEST(Balance, LeastOutstandingAvoidsBusyBackend) {
  LoadBalancer lb(BalancePolicy::kLeastOutstanding);
  lb.add_backend();
  lb.add_backend();
  auto first = lb.pick();   // backend 0 (tie -> lowest index)
  auto second = lb.pick();  // backend 1 now least loaded
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(second, 1u);
  lb.complete(0);
  EXPECT_EQ(lb.pick(), 0u);  // 0 free again
}

TEST(Balance, OutstandingBookkeeping) {
  LoadBalancer lb(BalancePolicy::kRoundRobin);
  lb.add_backend();
  lb.pick();
  lb.pick();
  EXPECT_EQ(lb.outstanding(0), 2u);
  lb.complete(0);
  EXPECT_EQ(lb.outstanding(0), 1u);
}

TEST(Balance, WeightedFavorsBiggerBackend) {
  LoadBalancer lb(BalancePolicy::kWeighted);
  lb.add_backend(1.0);
  lb.add_backend(3.0);  // 3x capacity
  size_t picks1 = 0;
  for (int i = 0; i < 400; ++i) {
    auto b = lb.pick();
    if (*b == 1) ++picks1;
  }
  // Without completions, weighted least-load converges to the weight ratio.
  EXPECT_NEAR(static_cast<double>(picks1) / 400.0, 0.75, 0.05);
}

TEST(Balance, RandomHitsEveryBackend) {
  LoadBalancer lb(BalancePolicy::kRandom, util::Rng(3));
  for (int i = 0; i < 4; ++i) lb.add_backend();
  for (int i = 0; i < 400; ++i) lb.pick();
  for (size_t b = 0; b < 4; ++b) EXPECT_GT(lb.picks(b), 50u);
}

TEST(Balance, LeastOutstandingBalancesBetterThanRandomUnderSkew) {
  // Speculative (random) balancing lets imbalance accumulate when requests
  // do not complete uniformly; least-outstanding tracks true state. Model:
  // backend 0 is slow (completes nothing), backend 1 completes instantly.
  auto run = [](BalancePolicy policy) {
    LoadBalancer lb(policy, util::Rng(9));
    lb.add_backend();
    lb.add_backend();
    for (int i = 0; i < 1000; ++i) {
      auto b = lb.pick();
      if (*b == 1) lb.complete(1);  // fast backend drains instantly
    }
    return lb.outstanding(0);  // queue depth at the slow backend
  };
  EXPECT_LT(run(BalancePolicy::kLeastOutstanding), run(BalancePolicy::kRandom));
}

TEST(Balance, PolicyNames) {
  EXPECT_STREQ(balance_policy_name(BalancePolicy::kRandom), "random");
  EXPECT_STREQ(balance_policy_name(BalancePolicy::kRoundRobin), "round-robin");
  EXPECT_STREQ(balance_policy_name(BalancePolicy::kLeastOutstanding),
               "least-outstanding");
  EXPECT_STREQ(balance_policy_name(BalancePolicy::kWeighted), "weighted");
  EXPECT_STREQ(balance_policy_name(BalancePolicy::kEwma), "ewma");
  EXPECT_STREQ(balance_policy_name(BalancePolicy::kP2c), "p2c");
}

TEST(Balance, ParsePolicyNamesAndAliases) {
  EXPECT_EQ(parse_balance_policy("random"), BalancePolicy::kRandom);
  EXPECT_EQ(parse_balance_policy("round-robin"), BalancePolicy::kRoundRobin);
  EXPECT_EQ(parse_balance_policy("rr"), BalancePolicy::kRoundRobin);
  EXPECT_EQ(parse_balance_policy("least-outstanding"),
            BalancePolicy::kLeastOutstanding);
  EXPECT_EQ(parse_balance_policy("least"), BalancePolicy::kLeastOutstanding);
  EXPECT_EQ(parse_balance_policy("weighted"), BalancePolicy::kWeighted);
  EXPECT_EQ(parse_balance_policy("ewma"), BalancePolicy::kEwma);
  EXPECT_EQ(parse_balance_policy("p2c"), BalancePolicy::kP2c);
  EXPECT_FALSE(parse_balance_policy("p3c").has_value());
  EXPECT_FALSE(parse_balance_policy("").has_value());
}

// --------------------------------------------------------------------------
// Latency-aware policies: peak-decaying EWMA and power-of-two-choices

TEST(Ewma, PeakJumpsUpGlidesDownAndDecays) {
  LoadBalancer lb(BalancePolicy::kEwma, util::Rng(7));  // tau = kDefaultEwmaTau
  lb.add_backend();
  EXPECT_DOUBLE_EQ(lb.ewma_seconds(0, 1.0), 0.0);  // no sample yet
  lb.report(0, true, 0.0, 0.010);
  EXPECT_DOUBLE_EQ(lb.ewma_seconds(0, 0.0), 0.010);
  // A slower sample is adopted outright (peak sensitivity)...
  lb.report(0, true, 0.0, 0.100);
  EXPECT_DOUBLE_EQ(lb.ewma_seconds(0, 0.0), 0.100);
  // ...a faster one only pulls the estimate partway down...
  lb.report(0, true, 0.0, 0.010);
  double glided = lb.ewma_seconds(0, 0.0);
  EXPECT_GT(glided, 0.010);
  EXPECT_LT(glided, 0.100);
  // ...and with no samples at all the estimate ages toward zero with tau.
  EXPECT_NEAR(lb.ewma_seconds(0, 0.5), glided * std::exp(-1.0), 1e-12);
  EXPECT_LT(lb.ewma_seconds(0, 5.0), 1e-4);
}

TEST(Ewma, FailuresAndMissingLatencyLeaveEstimateAlone) {
  LoadBalancer lb(BalancePolicy::kEwma, util::Rng(7));
  lb.add_backend();
  lb.report(0, true, 0.0, 0.010);
  lb.report(0, false, 0.0, 0.500);  // failed exchange: no latency signal
  lb.report(0, true, 0.0);          // default latency: none recorded
  EXPECT_DOUBLE_EQ(lb.ewma_seconds(0, 0.0), 0.010);
}

TEST(Ewma, PrefersFasterReplicaAndExploresColdOnes) {
  LoadBalancer lb(BalancePolicy::kEwma, util::Rng(7));
  lb.add_backend();
  lb.add_backend();
  lb.add_backend();
  lb.report(0, true, 0.0, 0.005);
  lb.report(1, true, 0.0, 0.050);
  // Replica 2 has no sample: it scores near zero and is explored first.
  auto cold = lb.pick(0.0);
  ASSERT_TRUE(cold.has_value());
  EXPECT_EQ(*cold, 2u);
  lb.complete(*cold);
  lb.report(2, true, 0.0, 0.050);
  // All warmed: the fast replica wins until its outstanding pile up.
  for (int i = 0; i < 8; ++i) {
    auto p = lb.pick(0.0);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, 0u);
    lb.complete(*p);
    lb.report(0, true, 0.0, 0.005);
  }
}

TEST(Ewma, DecayRecoversReplicaThatWasSlowThenGotFast) {
  // Replica 1 was slow (100ms) and stopped being picked; once its estimate
  // ages out it must be retried, and fresh fast samples keep it preferred.
  LoadBalancer lb(BalancePolicy::kEwma, util::Rng(7));  // tau = kDefaultEwmaTau
  lb.add_backend();
  lb.add_backend();
  lb.report(0, true, 0.0, 0.010);
  lb.report(1, true, 0.0, 0.100);
  for (double t = 0.1; t <= 0.5; t += 0.1) {
    auto p = lb.pick(t);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, 0u);  // the slow estimate still dominates
    lb.complete(*p);
    lb.report(0, true, t, 0.010);
  }
  // Seconds later replica 1's stale estimate has decayed below replica 0's
  // freshly refreshed one, so the balancer probes it again...
  auto p = lb.pick(3.0);
  ASSERT_TRUE(p.has_value());
  lb.complete(*p);
  lb.report(*p, true, 3.0, 0.010);
  auto q = lb.pick(3.01);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(*q, 1u);
  lb.complete(*q);
  // ...and once it reports fast, it stays in rotation.
  lb.report(1, true, 3.01, 0.005);
  auto r = lb.pick(3.1);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, 1u);
  lb.complete(*r);
}

TEST(Balance, P2cShunsSlowReplica) {
  // With static estimates, the slow replica loses every pairing it appears
  // in, so it is only reached when outstanding load makes the fast ones
  // score worse — with instant completions, never.
  LoadBalancer lb(BalancePolicy::kP2c, util::Rng(11));
  lb.add_backend();
  lb.add_backend();
  lb.add_backend();
  lb.report(0, true, 0.0, 0.005);
  lb.report(1, true, 0.0, 0.005);
  lb.report(2, true, 0.0, 0.100);
  for (int i = 0; i < 300; ++i) {
    auto p = lb.pick(0.0);
    ASSERT_TRUE(p.has_value());
    lb.complete(*p);
    lb.report(*p, true, 0.0, *p == 2 ? 0.100 : 0.005);
  }
  EXPECT_EQ(lb.picks(2), 0u);
  EXPECT_GT(lb.picks(0), 50u);
  EXPECT_GT(lb.picks(1), 50u);
}

TEST(Balance, P2cSpreadsLoadWhenFastReplicaBacksUp) {
  // Without completions the fast replica's outstanding factor grows until
  // even the slow replica wins some pairings: no starvation herding.
  LoadBalancer lb(BalancePolicy::kP2c, util::Rng(11));
  lb.add_backend();
  lb.add_backend();
  lb.report(0, true, 0.0, 0.005);
  lb.report(1, true, 0.0, 0.050);
  for (int i = 0; i < 100; ++i) lb.pick(0.0);  // nothing completes
  EXPECT_GT(lb.picks(1), 0u);
  EXPECT_GT(lb.picks(0), lb.picks(1));
}

TEST(Balance, LeastOutstandingDrainsAroundStalledReplica) {
  // A stalled replica keeps its in-flight charge forever; every subsequent
  // pick must drain to the live one.
  LoadBalancer lb(BalancePolicy::kLeastOutstanding);
  lb.add_backend();
  lb.add_backend();
  auto stalled = lb.pick();
  ASSERT_TRUE(stalled.has_value());
  EXPECT_EQ(*stalled, 0u);  // never completes
  for (int i = 0; i < 100; ++i) {
    auto p = lb.pick();
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, 1u);
    lb.complete(*p);
  }
  EXPECT_EQ(lb.picks(0), 1u);
  EXPECT_EQ(lb.picks(1), 100u);
}

// --------------------------------------------------------------------------
// Replica health: consecutive-failure ejection + half-open probe recovery

LoadBalancer health_balancer(int eject_after = 2, double eject_duration = 1.0,
                             size_t backends = 2) {
  LoadBalancer lb(BalancePolicy::kRoundRobin, util::Rng(7),
                  HealthConfig{eject_after, eject_duration});
  for (size_t i = 0; i < backends; ++i) lb.add_backend(1.0);
  return lb;
}

TEST(Health, ConsecutiveFailuresEject) {
  auto lb = health_balancer();
  EXPECT_EQ(lb.report(0, false, 0.0), ReplicaEvent::kNone);
  EXPECT_EQ(lb.report(0, false, 0.1), ReplicaEvent::kEjected);
  EXPECT_TRUE(lb.ejected(0));
  EXPECT_EQ(lb.ejected_count(), 1u);
}

TEST(Health, SuccessResetsFailureStreak) {
  auto lb = health_balancer();
  lb.report(0, false, 0.0);
  lb.report(0, true, 0.1);  // streak broken
  EXPECT_EQ(lb.report(0, false, 0.2), ReplicaEvent::kNone);
  EXPECT_FALSE(lb.ejected(0));
}

TEST(Health, PickSkipsEjectedReplica) {
  auto lb = health_balancer();
  lb.report(1, false, 0.0);
  lb.report(1, false, 0.1);
  ASSERT_TRUE(lb.ejected(1));
  for (int i = 0; i < 6; ++i) {
    auto pick = lb.pick(0.2);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(*pick, 0u);
    lb.complete(*pick);
  }
}

TEST(Health, AllEjectedStillServes) {
  // Ejection must never make the service unpickable: with every replica
  // ejected (and no probe due), pick falls back to the full set.
  auto lb = health_balancer(2, 100.0);
  for (size_t b = 0; b < 2; ++b) {
    lb.report(b, false, 0.0);
    lb.report(b, false, 0.1);
  }
  EXPECT_TRUE(lb.pick(0.2).has_value());
}

TEST(Health, HalfOpenProbeAfterEjectDuration) {
  auto lb = health_balancer(2, 1.0);
  lb.report(1, false, 0.0);
  lb.report(1, false, 0.1);
  // Before the window elapses the ejected replica is not probed.
  for (int i = 0; i < 4; ++i) {
    auto p = lb.pick(0.5);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, 0u);
    lb.complete(*p);
  }
  // After it elapses exactly one probe goes to the ejected replica...
  bool probe = false;
  auto p = lb.pick(1.2, std::nullopt, &probe);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, 1u);
  EXPECT_TRUE(probe);
  EXPECT_EQ(lb.probes(), 1u);
  // ...and while it is outstanding, traffic keeps avoiding the replica.
  probe = false;
  auto q = lb.pick(1.3, std::nullopt, &probe);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(*q, 0u);
  EXPECT_FALSE(probe);
  // Probe succeeds: the replica recovers and takes traffic again.
  lb.complete(*p);
  lb.complete(*q);
  EXPECT_EQ(lb.report(1, true, 1.4), ReplicaEvent::kRecovered);
  EXPECT_FALSE(lb.ejected(1));
}

TEST(Health, FailedProbeReEjects) {
  auto lb = health_balancer(2, 1.0);
  lb.report(1, false, 0.0);
  lb.report(1, false, 0.1);
  bool probe = false;
  auto p = lb.pick(1.5, std::nullopt, &probe);
  ASSERT_TRUE(probe);
  lb.complete(*p);
  EXPECT_EQ(lb.report(1, false, 1.6), ReplicaEvent::kEjected);
  EXPECT_TRUE(lb.ejected(1));
  // The new window starts at the probe failure, not the original ejection.
  bool probe2 = false;
  auto q = lb.pick(2.0, std::nullopt, &probe2);
  EXPECT_FALSE(probe2);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(*q, 0u);
}

TEST(Health, AvoidHintRespected) {
  auto lb = health_balancer(0);  // health disabled; avoid still honored
  for (int i = 0; i < 4; ++i) {
    auto p = lb.pick(0.0, /*avoid=*/size_t{0});
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, 1u);
    lb.complete(*p);
  }
  // A single replica relaxes the hint rather than failing the pick.
  LoadBalancer one(BalancePolicy::kRoundRobin, util::Rng(7), HealthConfig{});
  one.add_backend(1.0);
  auto p = one.pick(0.0, /*avoid=*/size_t{0});
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, 0u);
}

TEST(Health, DisabledConfigNeverEjects) {
  auto lb = health_balancer(0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(lb.report(0, false, 0.1 * i), ReplicaEvent::kNone);
  }
  EXPECT_FALSE(lb.ejected(0));
}

// --------------------------------------------------------------------------
// Policy x health interaction: probes, fallback, and avoid hints must behave
// identically under the latency-aware policies.

LoadBalancer latency_policy_balancer(BalancePolicy policy) {
  LoadBalancer lb(policy, util::Rng(7), HealthConfig{2, 1.0});
  lb.add_backend(1.0);
  lb.add_backend(1.0);
  // Warm both estimates so the policy path (not cold exploration) decides.
  lb.report(0, true, 0.0, 0.005);
  lb.report(1, true, 0.0, 0.005);
  return lb;
}

TEST(Health, HalfOpenProbeHonoredUnderEwmaAndP2c) {
  for (auto policy : {BalancePolicy::kEwma, BalancePolicy::kP2c}) {
    auto lb = latency_policy_balancer(policy);
    lb.report(1, false, 0.1);
    lb.report(1, false, 0.2);
    ASSERT_TRUE(lb.ejected(1)) << balance_policy_name(policy);
    // While ejected (window not elapsed), traffic avoids the replica.
    for (int i = 0; i < 6; ++i) {
      auto p = lb.pick(0.5);
      ASSERT_TRUE(p.has_value());
      EXPECT_EQ(*p, 0u) << balance_policy_name(policy);
      lb.complete(*p);
      lb.report(0, true, 0.5, 0.005);
    }
    // After the window, exactly one probe goes to the ejected replica.
    bool probe = false;
    auto p = lb.pick(1.5, std::nullopt, &probe);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, 1u) << balance_policy_name(policy);
    EXPECT_TRUE(probe) << balance_policy_name(policy);
    EXPECT_EQ(lb.probes(), 1u) << balance_policy_name(policy);
    // While the probe is outstanding, no second request reaches it.
    probe = false;
    auto q = lb.pick(1.6, std::nullopt, &probe);
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(*q, 0u) << balance_policy_name(policy);
    EXPECT_FALSE(probe) << balance_policy_name(policy);
    // A successful probe recovers the replica under either policy.
    lb.complete(*p);
    lb.complete(*q);
    EXPECT_EQ(lb.report(1, true, 1.7, 0.005), ReplicaEvent::kRecovered)
        << balance_policy_name(policy);
    EXPECT_FALSE(lb.ejected(1)) << balance_policy_name(policy);
  }
}

TEST(Health, AllEjectedStillServesUnderEveryPolicy) {
  for (auto policy :
       {BalancePolicy::kRandom, BalancePolicy::kRoundRobin,
        BalancePolicy::kLeastOutstanding, BalancePolicy::kWeighted,
        BalancePolicy::kEwma, BalancePolicy::kP2c}) {
    LoadBalancer lb(policy, util::Rng(7), HealthConfig{2, 100.0});
    lb.add_backend(1.0);
    lb.add_backend(1.0);
    for (size_t b = 0; b < 2; ++b) {
      lb.report(b, false, 0.0);
      lb.report(b, false, 0.1);
    }
    ASSERT_EQ(lb.ejected_count(), 2u) << balance_policy_name(policy);
    EXPECT_TRUE(lb.pick(0.2).has_value()) << balance_policy_name(policy);
  }
}

TEST(Health, AvoidHintRespectedUnderEwmaAndP2c) {
  for (auto policy : {BalancePolicy::kEwma, BalancePolicy::kP2c}) {
    auto lb = latency_policy_balancer(policy);
    // Replica 0 is the faster one by estimate; the avoid hint (a retry that
    // just failed there) must still steer the pick to replica 1.
    lb.report(1, true, 0.0, 0.050);
    for (int i = 0; i < 6; ++i) {
      auto p = lb.pick(0.1, /*avoid=*/size_t{0});
      ASSERT_TRUE(p.has_value());
      EXPECT_EQ(*p, 1u) << balance_policy_name(policy);
      lb.complete(*p);
    }
  }
}

}  // namespace
}  // namespace sbroker::core
