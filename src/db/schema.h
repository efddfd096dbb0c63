// Table schemas for the mini relational engine.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "db/value.h"

namespace sbroker::db {

struct Column {
  std::string name;
  Type type = Type::kInt;
};

class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns) : columns_(std::move(columns)) {}

  size_t column_count() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_.at(i); }
  const std::vector<Column>& columns() const { return columns_; }

  /// Index of the named column, or nullopt.
  std::optional<size_t> find(const std::string& name) const {
    for (size_t i = 0; i < columns_.size(); ++i) {
      if (columns_[i].name == name) return i;
    }
    return std::nullopt;
  }

  /// True when `row` has the right arity and each cell matches the declared
  /// column type.
  bool matches(const Row& row) const {
    if (row.size() != columns_.size()) return false;
    for (size_t i = 0; i < row.size(); ++i) {
      if (row[i].type() != columns_[i].type) return false;
    }
    return true;
  }

 private:
  std::vector<Column> columns_;
};

}  // namespace sbroker::db
