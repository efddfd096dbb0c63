// In-memory table with secondary indexes.
//
// Rows are stored in insertion order and addressed by a dense row id. Two
// index flavours are supported per column:
//   * hash index    — equality lookups, O(1) average
//   * ordered index — range scans, O(log n + k)
// Tables are append-only; inserts maintain the indexes. The executor picks an
// index when a predicate allows it and falls back to a full scan otherwise
// (the scan-vs-index equivalence is covered by property tests).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/schema.h"
#include "db/value.h"

namespace sbroker::db {

using RowId = uint64_t;

class Table {
 public:
  Table(std::string name, Schema schema);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t row_count() const { return rows_.size(); }

  /// Inserts a row; throws std::invalid_argument on schema mismatch.
  RowId insert(Row row);

  /// Returns nullptr for unknown ids.
  const Row* get(RowId id) const;

  /// Builds a hash (equality) index on `column`. Idempotent.
  void create_hash_index(const std::string& column);

  /// Builds an ordered (range) index on `column`. Idempotent.
  void create_ordered_index(const std::string& column);

  bool has_hash_index(size_t column) const;
  bool has_ordered_index(size_t column) const;

  /// Row ids whose `column` equals `key` (via hash index; requires one).
  std::vector<RowId> hash_lookup(size_t column, const Value& key) const;

  /// Row ids whose `column` lies in [lo, hi] (nullopt = unbounded side);
  /// requires an ordered index on the column.
  std::vector<RowId> range_lookup(size_t column, const Value* lo, bool lo_inclusive,
                                  const Value* hi, bool hi_inclusive) const;

  /// Visits every row in insertion order; `fn` returns false to stop.
  template <typename Fn>
  void scan(Fn&& fn) const {
    for (RowId id = 0; id < rows_.size(); ++id) {
      if (!fn(id, rows_[id])) return;
    }
  }

 private:
  struct ValueHash {
    size_t operator()(const Value& v) const { return v.hash(); }
  };
  struct ValueEq {
    bool operator()(const Value& a, const Value& b) const {
      // Hash-index keys are same-typed in practice; compare() may throw on
      // TEXT-vs-numeric, which would indicate a caller bug.
      return a.compare(b) == 0;
    }
  };
  struct ValueLess {
    bool operator()(const Value& a, const Value& b) const { return a.compare(b) < 0; }
  };

  using HashIndex = std::unordered_multimap<Value, RowId, ValueHash, ValueEq>;
  using OrderedIndex = std::multimap<Value, RowId, ValueLess>;

  void index_insert(RowId id, const Row& row);

  std::string name_;
  Schema schema_;
  std::vector<Row> rows_;
  std::unordered_map<size_t, HashIndex> hash_indexes_;      // column -> index
  std::unordered_map<size_t, OrderedIndex> ordered_indexes_;
};

}  // namespace sbroker::db
