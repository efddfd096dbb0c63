#include "db/executor.h"

#include <gtest/gtest.h>

#include "db/cost_model.h"
#include "db/database.h"
#include "db/dataset.h"
#include "db/parser.h"
#include "util/rng.h"

namespace sbroker::db {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Rng rng(99);
    load_benchmark_table(db_, rng, 1000, 10);
  }
  Database db_;
};

TEST_F(ExecutorTest, PointLookupUsesHashIndex) {
  ResultSet rs = execute_sql(db_, "SELECT * FROM records WHERE id = 42");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].as_int(), 42);
  EXPECT_TRUE(rs.stats.used_index);
  EXPECT_LE(rs.stats.rows_examined, 2u);
}

TEST_F(ExecutorTest, FullScanWhenNoIndexApplies) {
  // score is not indexed: an equality on it scans the whole table.
  const Value score = (*db_.table("records").get(17))[2];
  ResultSet rs =
      execute(db_, SelectQuery{{"id", "score"}, "records", Predicate{"score", score}, {}});
  EXPECT_FALSE(rs.stats.used_index);
  EXPECT_EQ(rs.stats.rows_examined, 1000u);
  ASSERT_FALSE(rs.rows.empty());
  EXPECT_EQ(rs.rows[0][0].as_int(), 17);
  for (const Row& row : rs.rows) EXPECT_EQ(row[1].compare(score), 0);
}

TEST_F(ExecutorTest, RangeUsesOrderedIndex) {
  // category has an ordered index: an equality probes the one-key range,
  // whose rows come back in insertion (id) order.
  ResultSet rs = execute_sql(db_, "SELECT id, category FROM records WHERE category = 2");
  EXPECT_TRUE(rs.stats.used_index);
  ASSERT_FALSE(rs.rows.empty());
  for (size_t i = 0; i < rs.rows.size(); ++i) {
    EXPECT_EQ(rs.rows[i][1].as_int(), 2);
    if (i > 0) {
      EXPECT_LT(rs.rows[i - 1][0].as_int(), rs.rows[i][0].as_int());
    }
  }
  // Index probe should not touch the whole table.
  EXPECT_EQ(rs.stats.rows_examined, rs.rows.size());
}

TEST_F(ExecutorTest, ScanAndIndexPlansAgree) {
  // category is ordered-indexed; score is not. Compare an indexed query with
  // a filter-only rewrite of itself (matching row multiset).
  ResultSet indexed = execute_sql(db_, "SELECT id FROM records WHERE category = 3");
  // Force scan by filtering on the unindexed rewrite: category+0 isn't
  // expressible, so instead compare against counting via scan on score-range
  // query that covers all rows.
  ResultSet all = execute_sql(db_, "SELECT id, category FROM records");
  size_t expected = 0;
  for (const Row& row : all.rows) {
    if (row[1].as_int() == 3) ++expected;
  }
  EXPECT_EQ(indexed.rows.size(), expected);
}

TEST_F(ExecutorTest, ProjectionSelectsNamedColumns) {
  ResultSet rs = execute_sql(db_, "SELECT score, id FROM records WHERE id = 7");
  ASSERT_EQ(rs.columns.size(), 2u);
  EXPECT_EQ(rs.columns[0], "score");
  EXPECT_EQ(rs.columns[1], "id");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][1].as_int(), 7);
}

TEST_F(ExecutorTest, LimitCapsRows) {
  ResultSet rs = execute_sql(db_, "SELECT * FROM records LIMIT 5");
  EXPECT_EQ(rs.rows.size(), 5u);
}

TEST_F(ExecutorTest, UnknownTableThrows) {
  EXPECT_THROW(execute_sql(db_, "SELECT * FROM nope"), std::invalid_argument);
}

TEST_F(ExecutorTest, UnknownColumnThrows) {
  EXPECT_THROW(execute_sql(db_, "SELECT nope FROM records"), std::invalid_argument);
  EXPECT_THROW(execute_sql(db_, "SELECT * FROM records WHERE nope = 1"),
               std::invalid_argument);
}

TEST_F(ExecutorTest, EmptyResultIsNotAnError) {
  ResultSet rs = execute_sql(db_, "SELECT * FROM records WHERE id = 99999");
  EXPECT_TRUE(rs.rows.empty());
  EXPECT_EQ(rs.stats.rows_returned, 0u);
}

TEST_F(ExecutorTest, ToTextHasHeaderAndRows) {
  ResultSet rs = execute_sql(db_, "SELECT id FROM records WHERE id = 3");
  std::string text = rs.to_text();
  EXPECT_EQ(text, "id\n3\n");
}

TEST(CostModel, MonotoneInWork) {
  CostModel cost;
  ExecStats cheap{10, 1, 1, true};
  ExecStats expensive{42000, 100, 1, false};
  EXPECT_LT(cost.service_time(cheap), cost.service_time(expensive));
  ExecStats batched = cheap;
  batched.statements = 10;
  EXPECT_GT(cost.service_time(batched), cost.service_time(cheap));
}

TEST(Database, CatalogOperations) {
  Database db;
  db.create_table("a", Schema({{"x", Type::kInt}}));
  EXPECT_THROW(db.create_table("a", Schema({{"x", Type::kInt}})), std::invalid_argument);
  EXPECT_EQ(db.table("a").name(), "a");
  EXPECT_THROW(db.table("b"), std::invalid_argument);
}

TEST(Dataset, BenchmarkTableShape) {
  Database db;
  util::Rng rng(1);
  load_benchmark_table(db, rng, 500, 7);
  const Table& t = db.table("records");
  EXPECT_EQ(t.row_count(), 500u);
  ResultSet rs = execute_sql(db, "SELECT * FROM records WHERE id = 0");
  EXPECT_EQ(rs.rows.size(), 1u);
  ResultSet categories = execute_sql(db, "SELECT category FROM records");
  for (const Row& row : categories.rows) {
    EXPECT_GE(row[0].as_int(), 0);
    EXPECT_LT(row[0].as_int(), 7);
  }
}

TEST(Dataset, MovieScheduleShape) {
  Database db;
  util::Rng rng(2);
  load_movie_schedule(db, rng, 10, 3, 2);
  EXPECT_EQ(db.table("schedule").row_count(), 10u * 3u * 2u);
  ResultSet rs = execute_sql(db, "SELECT title FROM schedule WHERE movie_id = 5");
  EXPECT_EQ(rs.rows.size(), 6u);
  for (const Row& row : rs.rows) EXPECT_EQ(row[0].as_text(), "Movie #5");
}

}  // namespace
}  // namespace sbroker::db
