#include "db/database.h"

#include <stdexcept>

namespace sbroker::db {

Table& Database::create_table(const std::string& name, Schema schema) {
  auto [it, inserted] =
      tables_.emplace(name, std::make_unique<Table>(name, std::move(schema)));
  if (!inserted) throw std::invalid_argument("table already exists: " + name);
  return *it->second;
}

const Table& Database::table(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) throw std::invalid_argument("no such table: " + name);
  return *it->second;
}

}  // namespace sbroker::db
