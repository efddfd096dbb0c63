#include "db/table.h"

#include <stdexcept>

namespace sbroker::db {

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {}

RowId Table::insert(Row row) {
  if (!schema_.matches(row)) {
    throw std::invalid_argument("row does not match schema of table " + name_);
  }
  RowId id = rows_.size();
  rows_.push_back(std::move(row));
  index_insert(id, rows_.back());
  return id;
}

const Row* Table::get(RowId id) const {
  if (id >= rows_.size()) return nullptr;
  return &rows_[id];
}

void Table::create_hash_index(const std::string& column) {
  auto col = schema_.find(column);
  if (!col) throw std::invalid_argument("no such column: " + column);
  if (hash_indexes_.count(*col)) return;
  HashIndex index;
  scan([&](RowId id, const Row& row) {
    index.emplace(row[*col], id);
    return true;
  });
  hash_indexes_.emplace(*col, std::move(index));
}

void Table::create_ordered_index(const std::string& column) {
  auto col = schema_.find(column);
  if (!col) throw std::invalid_argument("no such column: " + column);
  if (ordered_indexes_.count(*col)) return;
  OrderedIndex index;
  scan([&](RowId id, const Row& row) {
    index.emplace(row[*col], id);
    return true;
  });
  ordered_indexes_.emplace(*col, std::move(index));
}

bool Table::has_hash_index(size_t column) const { return hash_indexes_.count(column) > 0; }

bool Table::has_ordered_index(size_t column) const {
  return ordered_indexes_.count(column) > 0;
}

std::vector<RowId> Table::hash_lookup(size_t column, const Value& key) const {
  auto it = hash_indexes_.find(column);
  if (it == hash_indexes_.end()) {
    throw std::logic_error("hash_lookup without hash index on table " + name_);
  }
  std::vector<RowId> out;
  auto [lo, hi] = it->second.equal_range(key);
  for (auto e = lo; e != hi; ++e) out.push_back(e->second);
  return out;
}

std::vector<RowId> Table::range_lookup(size_t column, const Value* lo, bool lo_inclusive,
                                       const Value* hi, bool hi_inclusive) const {
  auto it = ordered_indexes_.find(column);
  if (it == ordered_indexes_.end()) {
    throw std::logic_error("range_lookup without ordered index on table " + name_);
  }
  const OrderedIndex& index = it->second;
  auto begin = lo ? (lo_inclusive ? index.lower_bound(*lo) : index.upper_bound(*lo))
                  : index.begin();
  auto end = hi ? (hi_inclusive ? index.upper_bound(*hi) : index.lower_bound(*hi))
                : index.end();
  std::vector<RowId> out;
  for (auto e = begin; e != end; ++e) out.push_back(e->second);
  return out;
}

void Table::index_insert(RowId id, const Row& row) {
  for (auto& [col, index] : hash_indexes_) index.emplace(row[col], id);
  for (auto& [col, index] : ordered_indexes_) index.emplace(row[col], id);
}

}  // namespace sbroker::db
