#include "db/executor.h"

#include <stdexcept>

#include "db/database.h"
#include "db/parser.h"

namespace sbroker::db {

std::string ResultSet::to_text() const {
  std::string out;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i) out += '\t';
    out += columns[i];
  }
  out += '\n';
  for (const Row& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i) out += '\t';
      out += row[i].to_string();
    }
    out += '\n';
  }
  return out;
}

ResultSet execute(const Database& db, const SelectQuery& q) {
  const Table& t = db.table(q.table);
  const Schema& schema = t.schema();
  auto resolve = [&](const std::string& name) {
    auto idx = schema.find(name);
    if (!idx) throw std::invalid_argument("no such column: " + name);
    return *idx;
  };

  ResultSet result;
  std::vector<size_t> out_cols;
  if (q.columns.empty()) {
    for (size_t i = 0; i < schema.column_count(); ++i) {
      out_cols.push_back(i);
      result.columns.push_back(schema.column(i).name);
    }
  } else {
    for (const std::string& name : q.columns) {
      out_cols.push_back(resolve(name));
      result.columns.push_back(name);
    }
  }
  size_t where_col = q.where ? resolve(q.where->column) : 0;

  ExecStats& stats = result.stats;
  const uint64_t limit = q.limit.value_or(UINT64_MAX);
  auto emit = [&](const Row& row) {
    Row projected;
    projected.reserve(out_cols.size());
    for (size_t c : out_cols) projected.push_back(row[c]);
    result.rows.push_back(std::move(projected));
    ++stats.rows_returned;
  };

  if (q.where && (t.has_hash_index(where_col) || t.has_ordered_index(where_col))) {
    // Every row an index probe yields matches the predicate.
    stats.used_index = true;
    const Value& key = q.where->literal;
    std::vector<RowId> ids = t.has_hash_index(where_col)
                                 ? t.hash_lookup(where_col, key)
                                 : t.range_lookup(where_col, &key, true, &key, true);
    for (RowId id : ids) {
      if (stats.rows_returned >= limit) break;
      ++stats.rows_examined;
      emit(*t.get(id));
    }
  } else {
    t.scan([&](RowId, const Row& row) {
      if (stats.rows_returned >= limit) return false;
      ++stats.rows_examined;
      if (!q.where || row[where_col].compare(q.where->literal) == 0) emit(row);
      return true;
    });
  }
  return result;
}

ResultSet execute_sql(const Database& db, std::string_view sql) {
  return execute(db, parse_select(sql));
}

}  // namespace sbroker::db
