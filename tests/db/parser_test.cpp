#include "db/parser.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/rewrite.h"
#include "db/database.h"
#include "db/dataset.h"
#include "db/executor.h"
#include "util/rng.h"

namespace sbroker::db {
namespace {

TEST(Parser, SelectStar) {
  SelectQuery q = parse_select("SELECT * FROM records");
  EXPECT_TRUE(q.columns.empty());
  EXPECT_EQ(q.table, "records");
  EXPECT_FALSE(q.where.has_value());
  EXPECT_FALSE(q.limit.has_value());
}

TEST(Parser, ColumnList) {
  SelectQuery q = parse_select("SELECT id, name FROM t");
  ASSERT_EQ(q.columns.size(), 2u);
  EXPECT_EQ(q.columns[0], "id");
  EXPECT_EQ(q.columns[1], "name");
}

// A WHERE clause is one equality; a conjunction is outside the subset.
TEST(Parser, WhereConjunction) {
  SelectQuery q = parse_select("SELECT * FROM t WHERE id = 5");
  ASSERT_TRUE(q.where.has_value());
  EXPECT_EQ(q.where->column, "id");
  EXPECT_EQ(q.where->literal.as_int(), 5);
  EXPECT_DOUBLE_EQ(parse_select("SELECT * FROM t WHERE score = 0.5").where->literal.as_real(),
                   0.5);
  EXPECT_THROW(parse_select("SELECT * FROM t WHERE id = 5 AND score = 0.5"), ParseError);
}

// '=' is the only comparison operator.
TEST(Parser, AllOperators) {
  EXPECT_NO_THROW(parse_select("SELECT * FROM t WHERE x = 1"));
  for (const char* op : {"!=", "<>", "<", "<=", ">", ">="}) {
    EXPECT_THROW(parse_select(std::string("SELECT * FROM t WHERE x ") + op + " 1"), ParseError)
        << op;
  }
}

TEST(Parser, LimitAndRepeat) {
  EXPECT_EQ(parse_select("SELECT * FROM t LIMIT 10").limit, 10u);
  EXPECT_THROW(parse_select("SELECT * FROM t LIMIT 10 REPEAT 4"), ParseError);
}

// Literals are unsigned: no workload sends a negative one.
TEST(Parser, NegativeNumberLiteral) {
  EXPECT_THROW(parse_select("SELECT * FROM t WHERE x = -5"), ParseError);
  EXPECT_THROW(parse_select("SELECT * FROM t WHERE x = -0.5"), ParseError);
}

TEST(Parser, CaseInsensitiveKeywords) {
  SelectQuery q = parse_select("select id from T where X = 1 limit 2");
  EXPECT_EQ(q.columns[0], "id");
  EXPECT_EQ(q.table, "T");
  EXPECT_EQ(q.limit, 2u);
}

TEST(Parser, TrailingSemicolonAccepted) {
  EXPECT_NO_THROW(parse_select("SELECT * FROM t;"));
}

TEST(Parser, Errors) {
  EXPECT_THROW(parse_select(""), ParseError);
  EXPECT_THROW(parse_select("UPDATE t SET x = 1"), ParseError);
  EXPECT_THROW(parse_select("SELECT FROM t"), ParseError);
  EXPECT_THROW(parse_select("SELECT * FROM"), ParseError);
  EXPECT_THROW(parse_select("SELECT * FROM t WHERE"), ParseError);
  EXPECT_THROW(parse_select("SELECT * FROM t WHERE x ="), ParseError);
  EXPECT_THROW(parse_select("SELECT * FROM t WHERE x 5"), ParseError);
  EXPECT_THROW(parse_select("SELECT * FROM t LIMIT"), ParseError);
  EXPECT_THROW(parse_select("SELECT * FROM t LIMIT -1"), ParseError);
  EXPECT_THROW(parse_select("SELECT * FROM t garbage"), ParseError);
  EXPECT_THROW(parse_select("SELECT * FROM t @"), ParseError);
  // Grammar outside the subset the workloads send.
  EXPECT_THROW(parse_select("SELECT * FROM t WHERE id = 1 REPEAT 8"), ParseError);
  EXPECT_THROW(parse_select("SELECT COUNT(*) FROM t"), ParseError);
  EXPECT_THROW(parse_select("SELECT * FROM t ORDER BY id"), ParseError);
  EXPECT_THROW(parse_select("SELECT * FROM t WHERE id = 1 AND x = 2"), ParseError);
  EXPECT_THROW(parse_select("SELECT * FROM t WHERE id < 1"), ParseError);
  EXPECT_THROW(parse_select("SELECT * FROM t WHERE name = 'bob'"), ParseError);
  EXPECT_THROW(parse_select("SELECT * FROM t WHERE name = NULL"), ParseError);
}

/// A random query over the subset against `t`: '*' or a column list of the
/// table's schema, an optional equality on an INT or REAL column (its
/// literal usually taken from a row so that rows match), an optional LIMIT.
SelectQuery random_query(util::Rng& rng, const Table& t) {
  const Schema& schema = t.schema();
  auto pick = [&rng](size_t n) { return static_cast<size_t>(rng.uniform_int(0, n - 1)); };
  SelectQuery q;
  q.table = t.name();
  if (rng.uniform_int(0, 3) > 0) {
    size_t n = 1 + pick(schema.column_count());
    for (size_t i = 0; i < n; ++i) {
      q.columns.push_back(schema.column(pick(schema.column_count())).name);
    }
  }
  if (rng.uniform_int(0, 2) > 0) {
    std::vector<size_t> numeric;
    for (size_t c = 0; c < schema.column_count(); ++c) {
      if (schema.column(c).type != Type::kText) numeric.push_back(c);
    }
    size_t col = numeric[pick(numeric.size())];
    Value literal = (*t.get(pick(t.row_count())))[col];
    if (rng.uniform_int(0, 3) == 0) {
      literal = schema.column(col).type == Type::kInt ? Value(rng.uniform_int(0, 2000))
                                                      : Value(rng.uniform_real(0.0, 2.0));
    }
    q.where = Predicate{schema.column(col).name, literal};
  }
  if (rng.uniform_int(0, 1) > 0) q.limit = static_cast<uint64_t>(rng.uniform_int(0, 120));
  return q;
}

bool same_value(const Value& a, const Value& b) {
  return a.type() == b.type() && a.compare(b) == 0;
}

bool is_prefix(const std::vector<Row>& prefix, const std::vector<Row>& rows) {
  if (prefix.size() > rows.size()) return false;
  for (size_t r = 0; r < prefix.size(); ++r) {
    if (!std::equal(prefix[r].begin(), prefix[r].end(), rows[r].begin(), rows[r].end(),
                    same_value)) {
      return false;
    }
  }
  return true;
}

// Seeded sweep over the subset, on both dataset schemas: to_string()
// round-trips field by field, the fidelity rewriter's WARM and HOT caps
// yield LIMIT min(limit, cap), and the rewritten query returns a prefix of
// the original's rows.
TEST(Query, ToStringRoundTrips) {
  Database db;
  util::Rng data_rng(5);
  load_benchmark_table(db, data_rng, 300, 10);
  load_movie_schedule(db, data_rng, 8, 4, 5);
  const Table* tables[] = {&db.table("records"), &db.table("schedule")};
  core::QueryRewriter rewriter(core::RewriteConfig{true}, core::QosRules{});
  util::Rng rng(2024);
  for (int i = 0; i < 5000; ++i) {
    SelectQuery q = random_query(rng, *tables[i % 2]);
    const std::string sql = q.to_string();
    SCOPED_TRACE(sql);

    SelectQuery parsed = parse_select(sql);
    ASSERT_EQ(parsed.columns, q.columns);
    ASSERT_EQ(parsed.table, q.table);
    ASSERT_EQ(parsed.where.has_value(), q.where.has_value());
    if (q.where) {
      ASSERT_EQ(parsed.where->column, q.where->column);
      ASSERT_TRUE(same_value(parsed.where->literal, q.where->literal));
    }
    ASSERT_EQ(parsed.limit, q.limit);

    ResultSet full = execute(db, q);
    for (auto [load, cap] : {std::pair{core::LoadState::kWarm, core::kWarmLimit},
                             std::pair{core::LoadState::kHot, core::kHotLimit}}) {
      SelectQuery capped = parse_select(rewriter.apply(sql, 1, load).payload);
      ASSERT_EQ(capped.limit, std::min(q.limit.value_or(UINT64_MAX), cap));
      ASSERT_TRUE(is_prefix(execute(db, capped).rows, full.rows));
    }
  }
}

}  // namespace
}  // namespace sbroker::db
