#include "db/query.h"

#include <charconv>

namespace sbroker::db {
namespace {

/// A literal as query text. A REAL renders in the shortest form that reads
/// back as the same double, with a '.' so it lexes as REAL again (Value's
/// own six-decimal rendering is for result sets).
std::string literal_text(const Value& v) {
  if (v.type() != Type::kReal) return v.to_string();
  char buf[400];
  auto end = std::to_chars(buf, buf + sizeof buf, v.as_real(), std::chars_format::fixed).ptr;
  std::string out(buf, end);
  if (out.find('.') == std::string::npos) out += ".0";
  return out;
}

}  // namespace

std::string SelectQuery::to_string() const {
  std::string out = "SELECT ";
  if (columns.empty()) {
    out += "*";
  } else {
    for (size_t i = 0; i < columns.size(); ++i) {
      if (i) out += ", ";
      out += columns[i];
    }
  }
  out += " FROM " + table;
  if (where) out += " WHERE " + where->column + " = " + literal_text(where->literal);
  if (limit) out += " LIMIT " + std::to_string(*limit);
  return out;
}

}  // namespace sbroker::db
