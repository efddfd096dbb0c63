// Query executor: runs a SelectQuery against a Database.
//
// Plan selection is deliberately simple (this stands in for MySQL, it does
// not compete with it): an equality on a hash-indexed column probes the hash
// index, else one on an ordered-indexed column probes the ordered index
// (rows come back in index order), else the executor scans the table in
// insertion order and filters. The LIMIT stops the probe or scan early, so
// the rows under a LIMIT are a prefix of the unlimited result. `ExecStats`
// records the work done; the cost model converts it into a simulated
// service time for the DES testbeds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "db/query.h"
#include "db/schema.h"
#include "db/table.h"

namespace sbroker::db {

/// Work accounting for one backend call.
struct ExecStats {
  uint64_t rows_examined = 0;  ///< rows touched by scan or index probe
  uint64_t rows_returned = 0;
  uint64_t statements = 1;     ///< statements executed (records of a batch)
  bool used_index = false;
};

/// A materialized result.
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<Row> rows;
  ExecStats stats;

  /// Tab-separated rendering (header + rows) used by the HTTP layer.
  std::string to_text() const;
};

class Database;  // defined in database.h

/// Executes `q` against `db`. Throws std::invalid_argument for unknown
/// tables/columns.
ResultSet execute(const Database& db, const SelectQuery& q);

/// Parses `sql` then executes it.
ResultSet execute_sql(const Database& db, std::string_view sql);

}  // namespace sbroker::db
