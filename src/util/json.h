// Minimal JSON writer + parser for benchmark result files and the admin
// plane.
//
// The perf trajectory lives in BENCH_*.json files at the repo root so every
// PR can be compared against its predecessors. JsonWriter is a write-only,
// streaming builder — push objects/arrays, set scalar fields, render once.
// It escapes strings, prints doubles round-trippably, and rejects nothing:
// malformed nesting is a programming error caught by assert.
//
// JsonValue is the read half: a small recursive-descent parser producing an
// immutable tree, enough for the bench loadgen to scrape the daemon's
// /statusz document. It accepts exactly what JsonWriter emits (standard
// JSON; \uXXXX escapes decode the BMP only) and returns nullopt on any
// syntax error rather than throwing.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sbroker::util {

/// Shortest decimal text that parses back to exactly `v`: "1200", "0.0005",
/// "1e-07", "1234567.25". Finite values only; each format spells inf/nan
/// its own way.
std::string format_double(double v);

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object-member forms: emit `"key": value`.
  JsonWriter& key(std::string_view name);
  JsonWriter& field(std::string_view name, std::string_view value);
  JsonWriter& field(std::string_view name, const char* value);
  JsonWriter& field(std::string_view name, double value);
  JsonWriter& field(std::string_view name, uint64_t value);
  JsonWriter& field(std::string_view name, bool value);

  /// Array-element scalar forms.
  JsonWriter& value(double v);
  JsonWriter& value(uint64_t v);

  /// The document accumulated so far.
  const std::string& str() const { return out_; }

  static std::string escape(std::string_view raw);

 private:
  void comma_if_needed();
  std::string out_;
  std::vector<bool> first_in_scope_;  // per open scope
  bool after_key_ = false;            // next value completes a "key":
};

/// Parsed JSON document node. Numbers are kept as double (the writer never
/// emits integers a double cannot hold exactly below 2^53, which covers
/// every counter the bench scrapes).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses one JSON document (trailing whitespace allowed, trailing bytes
  /// rejected); nullopt on malformed input.
  static std::optional<JsonValue> parse(std::string_view text);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }

  /// Scalar accessors return the fallback when the node has another type.
  bool as_bool(bool fallback = false) const {
    return type_ == Type::kBool ? bool_ : fallback;
  }
  double as_double(double fallback = 0.0) const {
    return type_ == Type::kNumber ? number_ : fallback;
  }
  int64_t as_int(int64_t fallback = 0) const {
    return type_ == Type::kNumber ? static_cast<int64_t>(number_) : fallback;
  }
  const std::string& as_string() const { return string_; }

  /// Array access; empty/size-0 views for non-arrays.
  size_t size() const { return array_.size(); }
  const JsonValue& at(size_t i) const { return array_.at(i); }
  const std::vector<JsonValue>& items() const { return array_; }

  /// Object members by key; empty for non-objects.
  const std::map<std::string, JsonValue, std::less<>>& members() const {
    return object_;
  }
  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
  /// Chained lookup that never faults: returns a null-typed sentinel for
  /// missing members, so `doc["a"]["b"].as_double()` reads cleanly.
  const JsonValue& operator[](std::string_view key) const;

 private:
  struct Parser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue, std::less<>> object_;
};

}  // namespace sbroker::util
