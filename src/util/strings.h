// String helpers shared across the project.
//
// Small, allocation-conscious utilities: split/trim/case folding and
// string-to-number parsing with explicit error reporting. Kept deliberately
// minimal; anything fancier belongs in the module that needs it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sbroker::util {

/// Splits `s` on `sep`, returning views into `s` (no copies). Empty fields
/// are preserved: split(",a,", ',') -> {"", "a", ""}.
std::vector<std::string_view> split(std::string_view s, char sep);

/// Splits on `sep` but drops empty fields: split_skip_empty("a,,b", ',')
/// -> {"a", "b"}.
std::vector<std::string_view> split_skip_empty(std::string_view s, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// ASCII lower-casing (locale-independent).
std::string to_lower(std::string_view s);

/// Case-insensitive ASCII comparison.
bool iequals(std::string_view a, std::string_view b);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Parses a signed integer; returns nullopt on any syntax error or overflow.
std::optional<int64_t> parse_int(std::string_view s);

/// Parses a floating point number; returns nullopt on any syntax error.
std::optional<double> parse_double(std::string_view s);

}  // namespace sbroker::util
