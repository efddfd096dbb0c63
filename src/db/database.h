// Database catalog: owns named tables.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>

#include "db/table.h"

namespace sbroker::db {

class Database {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Creates a table; throws std::invalid_argument if the name exists.
  Table& create_table(const std::string& name, Schema schema);

  /// Returns the table or throws std::invalid_argument.
  const Table& table(const std::string& name) const;

 private:
  std::unordered_map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace sbroker::db
