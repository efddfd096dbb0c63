#include "db/value.h"

#include <cmath>
#include <functional>
#include <stdexcept>

namespace sbroker::db {

Type Value::type() const {
  switch (v_.index()) {
    case 0:
      return Type::kInt;
    case 1:
      return Type::kReal;
    default:
      return Type::kText;
  }
}

double Value::numeric() const {
  if (std::holds_alternative<int64_t>(v_)) return static_cast<double>(std::get<int64_t>(v_));
  if (std::holds_alternative<double>(v_)) return std::get<double>(v_);
  throw std::invalid_argument("Value::numeric on non-numeric value");
}

int Value::compare(const Value& other) const {
  bool ltext = type() == Type::kText;
  bool rtext = other.type() == Type::kText;
  if (ltext != rtext) {
    throw std::invalid_argument("cannot compare TEXT with numeric value");
  }
  if (ltext) {
    const std::string& a = as_text();
    const std::string& b = other.as_text();
    if (a < b) return -1;
    if (b < a) return 1;
    return 0;
  }
  double a = numeric();
  double b = other.numeric();
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
}

std::string Value::to_string() const {
  switch (type()) {
    case Type::kInt:
      return std::to_string(as_int());
    case Type::kReal: {
      std::string s = std::to_string(as_real());
      return s;
    }
    case Type::kText:
      return "'" + as_text() + "'";
  }
  return "?";
}

size_t Value::hash() const {
  switch (type()) {
    case Type::kInt:
      return std::hash<double>{}(static_cast<double>(as_int()));
    case Type::kReal:
      return std::hash<double>{}(as_real());
    case Type::kText:
      return std::hash<std::string>{}(as_text());
  }
  return 0;
}

const char* type_name(Type t) {
  switch (t) {
    case Type::kInt:
      return "INT";
    case Type::kReal:
      return "REAL";
    case Type::kText:
      return "TEXT";
  }
  return "?";
}

}  // namespace sbroker::db
