#include <gtest/gtest.h>

#include "core/broker.h"
#include "core/prefetch.h"
#include "core/txn.h"

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
// TransactionTracker

TEST(Txn, NoTransactionKeepsBaseLevel) {
  TransactionTracker t(QosRules{3, 20}, TxnConfig{});
  EXPECT_EQ(t.effective_level(0, 5, 2, 0.0), 2);
  EXPECT_EQ(t.active(), 0u);
}

TEST(Txn, StepEscalatesPriority) {
  TransactionTracker t(QosRules{3, 20}, TxnConfig{1, 60.0});
  EXPECT_EQ(t.effective_level(42, 1, 1, 0.0), 1);
  EXPECT_EQ(t.effective_level(42, 2, 1, 0.0), 2);
  EXPECT_EQ(t.effective_level(42, 3, 1, 0.0), 3);
}

TEST(Txn, EscalationClampsAtMaxLevel) {
  TransactionTracker t(QosRules{3, 20}, TxnConfig{1, 60.0});
  EXPECT_EQ(t.effective_level(42, 9, 2, 0.0), 3);
}

TEST(Txn, OutOfOrderStepsNeverDemote) {
  TransactionTracker t(QosRules{5, 20}, TxnConfig{1, 60.0});
  EXPECT_EQ(t.effective_level(7, 3, 1, 0.0), 3);
  // A delayed step-1 message arrives late; effective level stays at 3.
  EXPECT_EQ(t.effective_level(7, 1, 1, 1.0), 3);
}

TEST(Txn, BoostPerStepConfig) {
  TransactionTracker t(QosRules{9, 20}, TxnConfig{2, 60.0});
  EXPECT_EQ(t.effective_level(1, 3, 1, 0.0), 5);  // 1 + 2*(3-1)
}

TEST(Txn, CompleteReleasesState) {
  TransactionTracker t(QosRules{3, 20}, TxnConfig{});
  t.effective_level(42, 3, 1, 0.0);
  EXPECT_EQ(t.active(), 1u);
  t.complete(42);
  EXPECT_EQ(t.active(), 0u);
  // Starts over from step 1 semantics.
  EXPECT_EQ(t.effective_level(42, 1, 1, 0.0), 1);
}

TEST(Txn, ExpireRemovesIdleTransactions) {
  TransactionTracker t(QosRules{3, 20}, TxnConfig{1, 10.0});
  t.effective_level(1, 1, 1, 0.0);
  t.effective_level(2, 1, 1, 8.0);
  EXPECT_EQ(t.expire(15.0), 1u);  // txn 1 idle > 10s
  EXPECT_EQ(t.active(), 1u);
  EXPECT_EQ(t.highest_step(1), 0);
  EXPECT_EQ(t.highest_step(2), 1);
}

TEST(Txn, DistinctTransactionsIndependent) {
  TransactionTracker t(QosRules{3, 20}, TxnConfig{});
  EXPECT_EQ(t.effective_level(1, 3, 1, 0.0), 3);
  EXPECT_EQ(t.effective_level(2, 1, 1, 0.0), 1);
}

// --------------------------------------------------------------------------
// Prefetcher

TEST(Prefetch, FirstFetchDueImmediately) {
  Prefetcher p;
  p.add("GET /headlines", 10.0);
  auto due = p.take_due(0.0);
  ASSERT_TRUE(due.has_value());
  EXPECT_EQ(*due, "GET /headlines");
  EXPECT_EQ(p.issued(), 1u);
  EXPECT_FALSE(p.take_due(0.0).has_value());
}

TEST(Prefetch, RespectsPeriod) {
  Prefetcher p;
  p.add("q", 10.0);
  p.take_due(0.0);
  EXPECT_FALSE(p.take_due(5.0).has_value());
  EXPECT_TRUE(p.take_due(10.0).has_value());
}

TEST(Prefetch, NextDueTracksEarliest) {
  Prefetcher p;
  EXPECT_FALSE(p.next_due().has_value());
  p.add("qa", 10.0);
  p.add("qb", 3.0);
  p.take_due(0.0);  // both fetched; next dues 10 and 3
  p.take_due(0.0);
  EXPECT_DOUBLE_EQ(p.next_due().value(), 3.0);
}

TEST(Prefetch, MultipleEntriesIndependentSchedules) {
  Prefetcher p;
  p.add("qa", 2.0);
  p.add("qb", 5.0);
  p.take_due(0.0);
  p.take_due(0.0);
  auto due2 = p.take_due(2.0);
  ASSERT_TRUE(due2.has_value());
  EXPECT_EQ(*due2, "qa");
  EXPECT_FALSE(p.take_due(2.0).has_value());
  // At 5 both are due again: a at 4, b at 5.
  EXPECT_TRUE(p.take_due(5.0).has_value());
  EXPECT_TRUE(p.take_due(5.0).has_value());
  EXPECT_FALSE(p.take_due(5.0).has_value());
}

TEST(Prefetch, ScheduleAdvancesEvenWhenFetchSkippedByCaller) {
  // take_due() advancing next_due regardless of fetch outcome prevents retry
  // storms: the contract is periodic refresh, not guaranteed delivery.
  Prefetcher p;
  p.add("q", 10.0);
  ASSERT_TRUE(p.take_due(0.0).has_value());
  EXPECT_FALSE(p.take_due(0.5).has_value());
}

// The broker takes due entries only while the admission rule admits the
// lowest class, and every admitted prefetch counts in the load it reads.

/// Holds every backend call until the test completes it.
class HeldBackend : public Backend {
 public:
  void invoke(const Call& call, Completion done) override {
    payloads.push_back(call.payload);
    pending.push_back(std::move(done));
  }
  void complete(size_t i, double now) { std::move(pending.at(i))(now, true, "r"); }

  std::vector<std::string> payloads;
  std::vector<Completion> pending;
};

http::BrokerRequest class3(uint64_t id, std::string payload) {
  http::BrokerRequest req;
  req.request_id = id;
  req.qos_level = 3;
  req.payload = std::move(payload);
  return req;
}

TEST(Prefetch, SkipsWhenBusy) {
  BrokerConfig cfg;
  cfg.rules = QosRules{3, 3.0};  // class-1 bound 1: any outstanding request
  ServiceBroker broker("b", cfg);
  auto backend = std::make_shared<HeldBackend>();
  broker.add_backend(backend);
  broker.prefetcher().add("q", 10.0);
  broker.submit(0.0, class3(1, "work"), [](const http::BrokerReply&) {});
  broker.tick(0.0);
  EXPECT_EQ(backend->payloads.size(), 1u);  // only the demand request
  EXPECT_EQ(broker.prefetcher().issued(), 0u);
  // Still due once idle again.
  backend->complete(0, 0.5);
  broker.tick(1.0);
  ASSERT_EQ(backend->payloads.size(), 2u);
  EXPECT_EQ(backend->payloads[1], "q");
}

TEST(Prefetch, GateStaggersOverdueBacklogAsFetchesComplete) {
  // After a busy spell every entry is overdue at once. The class-1 bound
  // (threshold 6 over 3 levels = 2) caps the prefetches in flight; the rest
  // go out as earlier ones complete, each entry exactly once.
  BrokerConfig cfg;
  cfg.rules = QosRules{3, 6.0};
  ServiceBroker broker("b", cfg);
  auto backend = std::make_shared<HeldBackend>();
  broker.add_backend(backend);
  for (int i = 0; i < 5; ++i) broker.prefetcher().add(nth("q", i), 1.0);

  broker.submit(0.0, class3(1, "a"), [](const http::BrokerReply&) {});
  broker.submit(0.0, class3(2, "b"), [](const http::BrokerReply&) {});
  broker.tick(0.0);
  broker.tick(5.0);
  EXPECT_EQ(broker.prefetcher().issued(), 0u);  // busy: the backlog grows
  backend->complete(0, 10.0);
  backend->complete(1, 10.0);

  size_t completed = 2;
  for (int round = 0; round < 10 && broker.prefetcher().issued() < 5; ++round) {
    broker.tick(10.0);
    EXPECT_LE(broker.outstanding(), 2u);
    backend->complete(completed++, 10.0);
  }
  EXPECT_EQ(broker.prefetcher().issued(), 5u);
  ASSERT_EQ(backend->payloads.size(), 7u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(backend->payloads[2 + static_cast<size_t>(i)], nth("q", i));
  }
  // Each entry advanced by its period from when it went out: no catch-up
  // burst accrues for the next window.
  EXPECT_DOUBLE_EQ(broker.prefetcher().next_due().value(), 11.0);
  EXPECT_EQ(broker.metrics().background.issued, 5u);
}

}  // namespace
}  // namespace sbroker::core
