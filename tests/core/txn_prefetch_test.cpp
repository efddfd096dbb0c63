#include <gtest/gtest.h>

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
  Prefetcher p(1.0);
  p.add("headlines", "GET /headlines", 10.0);
  auto due = p.due(0.0, 0.0);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].cache_key, "headlines");
  EXPECT_EQ(p.issued(), 1u);
}

TEST(Prefetch, RespectsPeriod) {
  Prefetcher p(1.0);
  p.add("k", "q", 10.0);
  p.due(0.0, 0.0);
  EXPECT_TRUE(p.due(5.0, 0.0).empty());
  EXPECT_EQ(p.due(10.0, 0.0).size(), 1u);
}

TEST(Prefetch, SkipsWhenBusy) {
  Prefetcher p(/*idle_threshold=*/2.0);
  p.add("k", "q", 10.0);
  EXPECT_TRUE(p.due(0.0, /*current_load=*/5.0).empty());
  // Still due once idle again.
  EXPECT_EQ(p.due(1.0, 0.0).size(), 1u);
}

TEST(Prefetch, NextDueTracksEarliest) {
  Prefetcher p(1.0);
  EXPECT_FALSE(p.next_due().has_value());
  p.add("a", "qa", 10.0);
  p.add("b", "qb", 3.0);
  p.due(0.0, 0.0);  // both fetched; next dues 10 and 3
  EXPECT_DOUBLE_EQ(p.next_due().value(), 3.0);
}

TEST(Prefetch, MultipleEntriesIndependentSchedules) {
  Prefetcher p(1.0);
  p.add("a", "qa", 2.0);
  p.add("b", "qb", 5.0);
  p.due(0.0, 0.0);
  auto due2 = p.due(2.0, 0.0);
  ASSERT_EQ(due2.size(), 1u);
  EXPECT_EQ(due2[0].cache_key, "a");
  auto due5 = p.due(5.0, 0.0);
  ASSERT_EQ(due5.size(), 2u);  // a due again at 4, b at 5
}

TEST(Prefetch, BurstCapStaggersOverdueBacklogAcrossCalls) {
  // After a long busy spell every entry is overdue at once; max_issues must
  // trickle the backlog out instead of firing the whole registry in one
  // burst. Entries beyond the cap keep their past next_due and surface on
  // the next call.
  Prefetcher p(1.0);
  for (int i = 0; i < 5; ++i) {
    p.add(nth("k", i), nth("q", i), 1.0);
  }
  EXPECT_EQ(p.due(10.0, /*current_load=*/5.0).size(), 0u);  // busy: backlog grows

  EXPECT_EQ(p.due(10.0, 0.0, /*max_issues=*/2).size(), 2u);
  EXPECT_EQ(p.due(10.0, 0.0, /*max_issues=*/2).size(), 2u);
  EXPECT_EQ(p.due(10.0, 0.0, /*max_issues=*/2).size(), 1u);  // backlog drained
  EXPECT_EQ(p.due(10.0, 0.0, /*max_issues=*/2).size(), 0u);
  EXPECT_EQ(p.issued(), 5u);
  // Each issued entry advanced by its period from `now`, not from its
  // overdue slot: no catch-up burst accrues for the next window.
  EXPECT_DOUBLE_EQ(p.next_due().value(), 11.0);
}

TEST(Prefetch, ZeroBurstCapMeansUnbounded) {
  Prefetcher p(1.0);
  for (int i = 0; i < 8; ++i) {
    p.add(nth("k", i), "q", 1.0);
  }
  EXPECT_EQ(p.due(5.0, 0.0, /*max_issues=*/0).size(), 8u);
}

TEST(Prefetch, ScheduleAdvancesEvenWhenFetchSkippedByCaller) {
  // due() advancing next_due regardless of fetch outcome prevents retry
  // storms: the contract is periodic refresh, not guaranteed delivery.
  Prefetcher p(1.0);
  p.add("k", "q", 10.0);
  auto first = p.due(0.0, 0.0);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_TRUE(p.due(0.5, 0.0).empty());
}

}  // namespace
}  // namespace sbroker::core
