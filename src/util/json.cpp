#include "util/json.h"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace sbroker::util {

std::string format_double(double v) {
  // Integers a double holds exactly print in full; everything else as %g
  // at the fewest significant digits that round-trip.
  bool integral = v == std::trunc(v) && std::fabs(v) < 0x1p53;
  char buf[32];
  auto [end, ec] = std::to_chars(
      buf, buf + sizeof(buf), v,
      integral ? std::chars_format::fixed : std::chars_format::general);
  return std::string(buf, ec == std::errc() ? end : buf);
}

namespace {

std::string json_number(double v) {
  return std::isfinite(v) ? format_double(v) : "null";  // JSON has no inf/nan
}

}  // namespace

std::string JsonWriter::escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::comma_if_needed() {
  if (after_key_) {
    // The value completing a `"key":` never takes a separator.
    after_key_ = false;
    return;
  }
  if (first_in_scope_.empty()) return;
  if (first_in_scope_.back()) {
    first_in_scope_.back() = false;
  } else {
    out_ += ',';
  }
}

JsonWriter& JsonWriter::begin_object() {
  comma_if_needed();
  out_ += '{';
  first_in_scope_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  assert(!first_in_scope_.empty());
  first_in_scope_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma_if_needed();
  out_ += '[';
  first_in_scope_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  assert(!first_in_scope_.empty());
  first_in_scope_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  comma_if_needed();
  out_ += '"';
  out_ += escape(name);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view name, std::string_view value) {
  comma_if_needed();
  out_ += '"';
  out_ += escape(name);
  out_ += "\":\"";
  out_ += escape(value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view name, const char* value) {
  return field(name, std::string_view(value));
}

JsonWriter& JsonWriter::field(std::string_view name, double value) {
  comma_if_needed();
  out_ += '"';
  out_ += escape(name);
  out_ += "\":";
  out_ += json_number(value);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view name, uint64_t value) {
  comma_if_needed();
  out_ += '"';
  out_ += escape(name);
  out_ += "\":";
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view name, bool value) {
  comma_if_needed();
  out_ += '"';
  out_ += escape(name);
  out_ += "\":";
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  comma_if_needed();
  out_ += json_number(v);
  return *this;
}

JsonWriter& JsonWriter::value(uint64_t v) {
  comma_if_needed();
  out_ += std::to_string(v);
  return *this;
}

bool JsonWriter::write_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  bool ok = std::fwrite(out_.data(), 1, out_.size(), f) == out_.size();
  ok = std::fputc('\n', f) != EOF && ok;
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

struct JsonValue::Parser {
  std::string_view text;
  size_t pos = 0;
  // Malformed nesting deeper than this is rejected rather than recursed
  // into (stack safety on hostile input).
  int depth_budget = 128;

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  bool consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool consume_literal(std::string_view word) {
    if (text.substr(pos, word.size()) != word) return false;
    pos += word.size();
    return true;
  }

  bool parse_value(JsonValue& out) {
    if (--depth_budget < 0) return false;
    skip_ws();
    if (pos >= text.size()) return false;
    bool ok = false;
    switch (text[pos]) {
      case '{': ok = parse_object(out); break;
      case '[': ok = parse_array(out); break;
      case '"':
        out.type_ = Type::kString;
        ok = parse_string(out.string_);
        break;
      case 't':
        out.type_ = Type::kBool;
        out.bool_ = true;
        ok = consume_literal("true");
        break;
      case 'f':
        out.type_ = Type::kBool;
        out.bool_ = false;
        ok = consume_literal("false");
        break;
      case 'n':
        out.type_ = Type::kNull;
        ok = consume_literal("null");
        break;
      default: ok = parse_number(out); break;
    }
    ++depth_budget;
    return ok;
  }

  bool parse_object(JsonValue& out) {
    out.type_ = Type::kObject;
    ++pos;  // '{'
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (pos >= text.size() || text[pos] != '"' || !parse_string(key)) {
        return false;
      }
      skip_ws();
      if (!consume(':')) return false;
      JsonValue member;
      if (!parse_value(member)) return false;
      out.object_.insert_or_assign(std::move(key), std::move(member));
      skip_ws();
      if (consume(',')) continue;
      return consume('}');
    }
  }

  bool parse_array(JsonValue& out) {
    out.type_ = Type::kArray;
    ++pos;  // '['
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      JsonValue element;
      if (!parse_value(element)) return false;
      out.array_.push_back(std::move(element));
      skip_ws();
      if (consume(',')) continue;
      return consume(']');
    }
  }

  bool parse_string(std::string& out) {
    ++pos;  // opening quote
    while (pos < text.size()) {
      char c = text[pos];
      if (c == '"') {
        ++pos;
        return true;
      }
      if (c == '\\') {
        if (pos + 1 >= text.size()) return false;
        char esc = text[pos + 1];
        pos += 2;
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos + 4 > text.size()) return false;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text[pos + static_cast<size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return false;
            }
            pos += 4;
            // UTF-8 encode; surrogate pairs (beyond what JsonWriter emits)
            // come through as two unpaired code points.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: return false;
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // bare control
      out += c;
      ++pos;
    }
    return false;  // unterminated
  }

  bool parse_number(JsonValue& out) {
    size_t start = pos;
    if (consume('-')) {
    }
    while (pos < text.size() &&
           ((text[pos] >= '0' && text[pos] <= '9') || text[pos] == '.' ||
            text[pos] == 'e' || text[pos] == 'E' || text[pos] == '+' ||
            text[pos] == '-')) {
      ++pos;
    }
    if (pos == start) return false;
    std::string token(text.substr(start, pos - start));
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return false;
    out.type_ = Type::kNumber;
    out.number_ = value;
    return true;
  }
};

std::optional<JsonValue> JsonValue::parse(std::string_view text) {
  Parser p{text};
  JsonValue root;
  if (!p.parse_value(root)) return std::nullopt;
  p.skip_ws();
  if (p.pos != text.size()) return std::nullopt;  // trailing garbage
  return root;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

const JsonValue& JsonValue::operator[](std::string_view key) const {
  static const JsonValue kNullValue;
  const JsonValue* member = find(key);
  return member ? *member : kNullValue;
}

}  // namespace sbroker::util
