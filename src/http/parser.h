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
//
// Work is linear in the bytes fed, however they are split: the search for
// the next line end resumes where the previous call stopped, and each head
// line is parsed once, when it ends; the parsed head is kept while the body
// arrives.
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
/// Largest accepted Content-Length.
inline constexpr size_t kMaxBodyBytes = 64 * 1024 * 1024;

/// Parses a stream of HTTP messages: requests on the server side
/// (RequestParser), responses on the client side (ResponseParser).
template <typename Message>
class MessageParser {
 public:
  /// Appends bytes to the internal buffer.
  void feed(std::string_view bytes) { buffer_.append(bytes); }

  /// Attempts to extract the next complete message.
  ParseResult next(Message& out);

  bool in_error() const { return error_; }
  const std::string& error_message() const { return error_message_; }
  /// Bytes fed but not yet consumed by a complete message. Non-zero after
  /// draining next() means a message is partially received — a pipelined
  /// client uses this to tell "head exchange was mid-response" from "clean
  /// boundary" when the connection dies.
  size_t buffered() const { return buffer_.size(); }

 private:
  std::string buffer_;
  size_t line_start_ = 0;   ///< first head line not yet parsed
  size_t resume_ = 0;       ///< the CRLF search restarts here
  size_t body_start_ = 0;   ///< just past the blank line; 0 while head is open
  size_t body_length_ = 0;  ///< Content-Length of the parsed head
  Message pending_;         ///< head parsed, body still arriving
  bool error_ = false;
  std::string error_message_;
};

extern template class MessageParser<Request>;
extern template class MessageParser<Response>;
using RequestParser = MessageParser<Request>;
using ResponseParser = MessageParser<Response>;

/// One-shot conveniences for tests and in-process use: parse a complete
/// message from `text`; nullopt on incomplete or malformed input.
std::optional<Request> parse_request(std::string_view text);
std::optional<Response> parse_response(std::string_view text);

}  // namespace sbroker::http
