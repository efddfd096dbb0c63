// Typed values and rows for the mini relational engine.
//
// The engine supports three scalar types (INT, REAL, TEXT) and no NULL: no
// dataset stores one and the SQL subset has no NULL literal. This is all the
// paper's workloads need: a 42,000-record lookup table for the
// clustering experiment and a movie-schedule table for the caching example.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace sbroker::db {

enum class Type { kInt, kReal, kText };

/// A single cell. A default-constructed Value is INT 0.
class Value {
 public:
  Value() = default;
  Value(int64_t v) : v_(v) {}           // NOLINT(google-explicit-constructor)
  Value(int v) : v_(int64_t{v}) {}      // NOLINT(google-explicit-constructor)
  Value(double v) : v_(v) {}            // NOLINT(google-explicit-constructor)
  Value(std::string v) : v_(std::move(v)) {}  // NOLINT(google-explicit-constructor)
  Value(const char* v) : v_(std::string(v)) {}  // NOLINT(google-explicit-constructor)

  Type type() const;

  /// Accessors require the matching type (checked with std::get).
  int64_t as_int() const { return std::get<int64_t>(v_); }
  double as_real() const { return std::get<double>(v_); }
  const std::string& as_text() const { return std::get<std::string>(v_); }

  /// Numeric view: INT and REAL both convert; throws otherwise.
  double numeric() const;

  /// SQL-style three-way comparison used by predicates and ordered indexes.
  /// INT/REAL compare numerically, TEXT lexicographically; comparing TEXT
  /// with a numeric type throws std::invalid_argument.
  int compare(const Value& other) const;

  bool operator==(const Value& other) const { return compare(other) == 0; }
  bool operator<(const Value& other) const { return compare(other) < 0; }

  /// Rendering for result sets and logs: 42, 3.14, 'text'.
  std::string to_string() const;

  /// Stable hash for hash indexes; numerically equal INT/REAL hash alike.
  size_t hash() const;

 private:
  std::variant<int64_t, double, std::string> v_;
};

using Row = std::vector<Value>;

/// Human-readable type name ("INT", "TEXT", ...).
const char* type_name(Type t);

}  // namespace sbroker::db
