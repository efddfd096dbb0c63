// Cost model: converts executor work accounting into simulated service time.
//
// The DES testbeds need a service time for each backend database job. We
// charge a fixed per-call overhead (parse/plan/protocol), a per-statement
// cost for each record of a clustered batch, and per-row costs for examined
// and returned rows. A batch of k statements pays the fixed overhead once and
// the statement and row work k times — that asymmetry is exactly what
// produces the right-hand rise of the paper's Figure 7 U-curve (batched work
// is serialized in one script invocation, the script "repeats the same
// workload multiple times").
//
// Defaults are calibrated so a single 42,000-row indexed lookup costs a few
// milliseconds and a full scan tens of milliseconds — the same order as the
// paper's MySQL-on-2003-hardware testbed.
#pragma once

#include "db/executor.h"

namespace sbroker::db {

struct CostModel {
  double fixed_seconds = 0.004;          ///< parse/plan/protocol per request
  double per_row_examined = 0.0000009;   ///< predicate evaluation per row
  double per_row_returned = 0.00002;     ///< materialize + serialize per row
  double per_statement_seconds = 0.0005; ///< script loop overhead per statement

  /// Service time for one backend invocation with the given stats.
  double service_time(const ExecStats& stats) const {
    return fixed_seconds +
           per_statement_seconds * static_cast<double>(stats.statements) +
           per_row_examined * static_cast<double>(stats.rows_examined) +
           per_row_returned * static_cast<double>(stats.rows_returned);
  }
};

}  // namespace sbroker::db
