#include "db/database.h"

#include <stdexcept>

namespace sbroker::db {

Table& Database::create_table(const std::string& name, Schema schema) {
  auto [it, inserted] =
      tables_.emplace(name, std::make_unique<Table>(name, std::move(schema)));
  if (!inserted) throw std::invalid_argument("table already exists: " + name);
  return *it->second;
}

Table* Database::find_table(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* Database::find_table(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

Table& Database::table(const std::string& name) {
  Table* t = find_table(name);
  if (!t) throw std::invalid_argument("no such table: " + name);
  return *t;
}

const Table& Database::table(const std::string& name) const {
  const Table* t = find_table(name);
  if (!t) throw std::invalid_argument("no such table: " + name);
  return *t;
}

}  // namespace sbroker::db
