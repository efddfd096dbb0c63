// Incremental HTTP parser.
//
// Feed bytes as they arrive from a socket; complete messages pop out. Only
// Content-Length framing is supported (no chunked encoding) — every peer in
// this repo sends explicit lengths. Malformed input moves the parser into a
// sticky error state; the connection owner should then close.
//
// Buffering is bounded: a head (start line plus headers) that has not ended
// within kMaxHeadBytes, or a Content-Length above kMaxBodyBytes, is an error
// the moment it is seen, so no peer can grow a connection's buffer past
// kMaxHeadBytes + kMaxBodyBytes plus whatever it fed in one call.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "http/message.h"

namespace sbroker::http {

enum class ParseResult { kNeedMore, kMessage, kError };

/// Longest accepted head: start line, headers and the blank line.
inline constexpr size_t kMaxHeadBytes = 64 * 1024;
/// Largest accepted Content-Length; matches the binary frame section cap.
inline constexpr size_t kMaxBodyBytes = 64 * 1024 * 1024;

/// Parses a stream of HTTP requests (server side).
class RequestParser {
 public:
  /// Appends bytes to the internal buffer.
  void feed(std::string_view bytes);

  /// Attempts to extract the next complete request.
  ParseResult next(Request& out);

  bool in_error() const { return error_; }
  const std::string& error_message() const { return error_message_; }
  /// Bytes fed but not yet consumed by a complete message.
  size_t buffered() const { return buffer_.size(); }

 private:
  ParseResult fail(const char* message);

  std::string buffer_;
  bool error_ = false;
  std::string error_message_;
};

/// Parses a stream of HTTP responses (client side).
class ResponseParser {
 public:
  void feed(std::string_view bytes);
  ParseResult next(Response& out);

  bool in_error() const { return error_; }
  const std::string& error_message() const { return error_message_; }
  /// Bytes fed but not yet consumed by a complete message. Non-zero after
  /// draining next() means a response is partially received — a pipelined
  /// client uses this to tell "head exchange was mid-response" from "clean
  /// boundary" when the connection dies.
  size_t buffered() const { return buffer_.size(); }

 private:
  ParseResult fail(const char* message);

  std::string buffer_;
  bool error_ = false;
  std::string error_message_;
};

/// One-shot conveniences for tests and in-process use: parse a complete
/// message from `text`; nullopt on incomplete or malformed input.
std::optional<Request> parse_request(std::string_view text);
std::optional<Response> parse_response(std::string_view text);

}  // namespace sbroker::http
