#include "core/cluster.h"

#include <gtest/gtest.h>

namespace sbroker::core {
namespace {

/// `prefix` followed by `n` in decimal. Built by appending: GCC 12 at -O2
/// reports a false -Wrestrict overlap for `"k" + std::to_string(n)`.
std::string nth(const char* prefix, uint64_t n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

TEST(Cluster, DegreeOneFlushesImmediately) {
  ClusterEngine engine(ClusterConfig{1, 0.05});
  auto batch = engine.add(7, "q", 0.0);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->member_ids, (std::vector<uint64_t>{7}));
  EXPECT_EQ(batch->combined_payload, "q");
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(Cluster, BatchesAtDegree) {
  ClusterEngine engine(ClusterConfig{3, 1.0});
  EXPECT_FALSE(engine.add(1, "a", 0.0).has_value());
  EXPECT_FALSE(engine.add(2, "b", 0.1).has_value());
  EXPECT_EQ(engine.pending(), 2u);
  auto batch = engine.add(3, "c", 0.2);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->member_ids, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(batch->member_payloads, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(batch->combined_payload, std::string("a") + kRecordSep + "b" + kRecordSep + "c");
}

TEST(Cluster, DeadlineFlushReleasesPartialBatch) {
  ClusterEngine engine(ClusterConfig{10, 0.05});
  engine.add(1, "a", 0.0);
  engine.add(2, "b", 0.01);
  EXPECT_FALSE(engine.flush(0.04).has_value());  // deadline not reached
  auto batch = engine.flush(0.05);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->member_ids.size(), 2u);
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(Cluster, DeadlineTracksOldestMember) {
  ClusterEngine engine(ClusterConfig{10, 0.05});
  EXPECT_FALSE(engine.next_deadline().has_value());
  engine.add(1, "a", 1.0);
  engine.add(2, "b", 1.04);
  EXPECT_DOUBLE_EQ(engine.next_deadline().value(), 1.05);
}

TEST(Cluster, ForceFlush) {
  ClusterEngine engine(ClusterConfig{10, 100.0});
  engine.add(1, "a", 0.0);
  auto batch = engine.flush(0.0, /*force=*/true);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->member_ids.size(), 1u);
}

TEST(Cluster, FlushOnEmptyIsNullopt) {
  ClusterEngine engine(ClusterConfig{4, 0.05});
  EXPECT_FALSE(engine.flush(100.0, true).has_value());
}

// A batch is always record-separated, SQL or not: each member's own query
// text reaches the backend unchanged, and the backend runs one statement per
// member.
TEST(Cluster, IdenticalQueriesAreRecordSeparated) {
  ClusterEngine engine(ClusterConfig{3, 1.0});
  engine.add(1, "SELECT * FROM t WHERE id = 5", 0.0);
  engine.add(2, "SELECT * FROM t WHERE id = 5", 0.0);
  auto batch = engine.add(3, "SELECT * FROM t WHERE id = 5", 0.0);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(ClusterEngine::split_records(batch->combined_payload),
            std::vector<std::string>(3, "SELECT * FROM t WHERE id = 5"));
}

TEST(Cluster, HeterogeneousQueriesAreRecordSeparated) {
  ClusterEngine engine(ClusterConfig{2, 1.0});
  engine.add(1, "SELECT * FROM t WHERE id = 5", 0.0);
  auto batch = engine.add(2, "SELECT * FROM t WHERE id = 6", 0.0);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->combined_payload, std::string("SELECT * FROM t WHERE id = 5") +
                                         kRecordSep + "SELECT * FROM t WHERE id = 6");
}

TEST(Cluster, NonSqlPayloadsAreRecordSeparated) {
  ClusterEngine engine(ClusterConfig{2, 1.0});
  engine.add(1, "/page1.html", 0.0);
  auto batch = engine.add(2, "/page1.html", 0.0);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->combined_payload,
            std::string("/page1.html") + kRecordSep + "/page1.html");
}

TEST(Cluster, SplitReplyExact) {
  Batch batch;
  batch.member_ids = {1, 2, 3};
  batch.member_payloads = {"a", "b", "c"};
  std::string reply = std::string("ra") + kRecordSep + "rb" + kRecordSep + "rc";
  auto parts = ClusterEngine::split_reply(batch, reply);
  EXPECT_EQ(parts, (std::vector<std::string>{"ra", "rb", "rc"}));
}

TEST(Cluster, SplitReplyMismatchDegradesToFullCopy) {
  Batch batch;
  batch.member_ids = {1, 2, 3};
  auto parts = ClusterEngine::split_reply(batch, "single blob");
  ASSERT_EQ(parts.size(), 3u);
  for (const auto& p : parts) EXPECT_EQ(p, "single blob");
}

TEST(Cluster, SplitSingleMemberPassthrough) {
  Batch batch;
  batch.member_ids = {9};
  auto parts = ClusterEngine::split_reply(batch, std::string("x") + kRecordSep + "y");
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], std::string("x") + kRecordSep + "y");
}

TEST(Cluster, JoinSplitRecordsRoundTrip) {
  std::vector<std::string> payloads = {"one", "", "three"};
  auto joined = ClusterEngine::join_payloads(payloads);
  EXPECT_EQ(ClusterEngine::split_records(joined), payloads);
  EXPECT_EQ(ClusterEngine::split_records("solo"),
            (std::vector<std::string>{"solo"}));
}

// Property: for every degree, ids and payloads stay aligned and complete.
class ClusterDegreeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(ClusterDegreeSweep, NoMemberLostAtAnyDegree) {
  size_t degree = GetParam();
  ClusterEngine engine(ClusterConfig{degree, 1e9});
  std::vector<uint64_t> all_batched;
  const uint64_t total = 100;
  for (uint64_t i = 0; i < total; ++i) {
    if (auto batch = engine.add(i, nth("p", i), 0.0)) {
      EXPECT_EQ(batch->member_ids.size(), degree);
      for (size_t m = 0; m < batch->member_ids.size(); ++m) {
        EXPECT_EQ(nth("p", batch->member_ids[m]),
                  batch->member_payloads[m]);
        all_batched.push_back(batch->member_ids[m]);
      }
    }
  }
  if (auto tail = engine.flush(0.0, true)) {
    for (uint64_t id : tail->member_ids) all_batched.push_back(id);
  }
  ASSERT_EQ(all_batched.size(), total);
  for (uint64_t i = 0; i < total; ++i) EXPECT_EQ(all_batched[i], i);
}

INSTANTIATE_TEST_SUITE_P(Degrees, ClusterDegreeSweep,
                         ::testing::Values(1, 2, 3, 5, 7, 40, 100));

}  // namespace
}  // namespace sbroker::core
