// Query AST for the SQL subset understood by the engine.
//
// Grammar (case-insensitive keywords):
//
//   query       := SELECT select_list FROM ident [WHERE ident '=' number]
//                  [LIMIT int] [';']
//   select_list := '*' | ident (',' ident)*
//   number      := unsigned int or real: digits with at most one '.'
//
// That is the whole of what the workload generators, the examples and the
// simulator harnesses send: point lookups by id, category listings under a
// LIMIT (which the broker's fidelity rewriter caps), and movie-schedule
// lookups. Everything else is a ParseError.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "db/value.h"

namespace sbroker::db {

/// `column = literal`, the one predicate form.
struct Predicate {
  std::string column;
  Value literal;
};

struct SelectQuery {
  std::vector<std::string> columns;  ///< empty means '*'
  std::string table;
  std::optional<Predicate> where;
  std::optional<uint64_t> limit;

  /// Canonical text form; parse_select(to_string()) yields this query again.
  std::string to_string() const;
};

}  // namespace sbroker::db
