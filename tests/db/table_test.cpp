#include "db/table.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace sbroker::db {
namespace {

Schema test_schema() {
  return Schema({{"id", Type::kInt}, {"name", Type::kText}, {"score", Type::kReal}});
}

Table make_table() {
  Table t("t", test_schema());
  t.insert({Value(1), Value("a"), Value(0.5)});
  t.insert({Value(2), Value("b"), Value(0.7)});
  t.insert({Value(3), Value("a"), Value(0.9)});
  return t;
}

TEST(Schema, FindAndMatches) {
  Schema s = test_schema();
  EXPECT_EQ(s.find("id"), 0u);
  EXPECT_EQ(s.find("score"), 2u);
  EXPECT_FALSE(s.find("missing").has_value());
  EXPECT_TRUE(s.matches({Value(1), Value("x"), Value(1.0)}));
  EXPECT_TRUE(s.matches({Value(), Value("x"), Value()}));  // NULLs allowed
  EXPECT_FALSE(s.matches({Value(1), Value("x")}));         // wrong arity
  EXPECT_FALSE(s.matches({Value("1"), Value("x"), Value(1.0)}));  // wrong type
}

TEST(Table, InsertGetRoundTrip) {
  Table t = make_table();
  EXPECT_EQ(t.row_count(), 3u);
  const Row* row = t.get(1);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ((*row)[1].as_text(), "b");
  EXPECT_EQ(t.get(99), nullptr);
}

TEST(Table, InsertRejectsSchemaMismatch) {
  Table t("t", test_schema());
  EXPECT_THROW(t.insert({Value(1)}), std::invalid_argument);
  EXPECT_THROW(t.insert({Value("x"), Value("a"), Value(0.1)}), std::invalid_argument);
}

TEST(Table, HashIndexLookup) {
  Table t = make_table();
  t.create_hash_index("name");
  auto ids = t.hash_lookup(1, Value("a"));
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<RowId>{0, 2}));
  EXPECT_TRUE(t.hash_lookup(1, Value("nope")).empty());
}

TEST(Table, HashIndexMaintainedOnInsert) {
  Table t = make_table();
  t.create_hash_index("name");
  t.insert({Value(4), Value("a"), Value(0.1)});
  EXPECT_EQ(t.hash_lookup(1, Value("a")).size(), 3u);
}

TEST(Table, OrderedIndexRangeLookup) {
  Table t = make_table();
  t.create_ordered_index("score");
  Value lo(0.6), hi(1.0);
  auto ids = t.range_lookup(2, &lo, true, &hi, true);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<RowId>{1, 2}));
}

TEST(Table, RangeLookupBoundsExclusivity) {
  Table t = make_table();
  t.create_ordered_index("id");
  Value two(2);
  auto inclusive = t.range_lookup(0, &two, true, nullptr, false);
  EXPECT_EQ(inclusive.size(), 2u);  // ids 2,3
  auto exclusive = t.range_lookup(0, &two, false, nullptr, false);
  EXPECT_EQ(exclusive.size(), 1u);  // id 3
  auto below = t.range_lookup(0, nullptr, false, &two, false);
  EXPECT_EQ(below.size(), 1u);  // id 1
}

TEST(Table, LookupWithoutIndexThrows) {
  Table t = make_table();
  EXPECT_THROW(t.hash_lookup(0, Value(1)), std::logic_error);
  EXPECT_THROW(t.range_lookup(0, nullptr, false, nullptr, false), std::logic_error);
}

TEST(Table, CreateIndexOnUnknownColumnThrows) {
  Table t = make_table();
  EXPECT_THROW(t.create_hash_index("missing"), std::invalid_argument);
  EXPECT_THROW(t.create_ordered_index("missing"), std::invalid_argument);
}

TEST(Table, IndexCreationIsIdempotent) {
  Table t = make_table();
  t.create_hash_index("id");
  t.create_hash_index("id");
  EXPECT_EQ(t.hash_lookup(0, Value(1)).size(), 1u);
}

TEST(Table, IndexBuiltAfterInsertsSeesExistingRows) {
  Table t = make_table();
  t.create_ordered_index("name");
  auto ids = t.range_lookup(1, nullptr, false, nullptr, false);
  EXPECT_EQ(ids.size(), 3u);
}

TEST(Table, ScanEarlyStop) {
  Table t = make_table();
  size_t visited = 0;
  t.scan([&](RowId, const Row&) {
    ++visited;
    return visited < 2;
  });
  EXPECT_EQ(visited, 2u);
}

}  // namespace
}  // namespace sbroker::db
