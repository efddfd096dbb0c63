#include "http/parser.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "util/strings.h"

namespace sbroker::http {
namespace {

constexpr const char* kHeadTooLong = "message head exceeds cap";

/// Parses one header line into `headers`; returns an error message or
/// nullptr.
const char* parse_header_line(std::string_view line, Headers& headers) {
  size_t colon = line.find(':');
  if (colon == std::string_view::npos) return "header line missing ':'";
  std::string_view name = util::trim(line.substr(0, colon));
  if (name.empty()) return "empty header name";
  std::string_view value = util::trim(line.substr(colon + 1));
  headers.set(std::string(name), std::string(value));
  return nullptr;
}

/// Returns body length from Content-Length (0 when absent); -1 on a
/// malformed value.
int64_t body_length(const Headers& headers) {
  auto v = headers.get_view("Content-Length");
  if (!v) return 0;
  auto parsed = util::parse_int(*v);
  if (!parsed || *parsed < 0) return -1;
  return *parsed;
}

/// Parses a request line into `req`; returns an error message or nullptr.
const char* parse_start_line(std::string_view line, Request& req) {
  auto parts = util::split_skip_empty(line, ' ');
  if (parts.size() != 3) return "malformed request line";
  req.method = std::string(parts[0]);
  req.target = std::string(parts[1]);
  req.version = std::string(parts[2]);
  return nullptr;
}

/// Status line: VERSION SP STATUS SP REASON (reason may contain spaces).
const char* parse_start_line(std::string_view line, Response& resp) {
  size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) return "malformed status line";
  size_t sp2 = line.find(' ', sp1 + 1);
  resp.version = std::string(line.substr(0, sp1));
  auto status = util::parse_int(sp2 == std::string_view::npos
                                    ? line.substr(sp1 + 1)
                                    : line.substr(sp1 + 1, sp2 - sp1 - 1));
  if (!status || *status < 100 || *status > 599) return "bad status code";
  resp.status = static_cast<int>(*status);
  resp.reason =
      sp2 == std::string_view::npos ? "" : std::string(line.substr(sp2 + 1));
  return nullptr;
}

}  // namespace

/// Parses each head line once, as its CRLF arrives (so a malformed line is
/// an error at once), and resumes the CRLF search one byte back from where
/// the previous call stopped; once the blank line is in, keeps the body's
/// extent and hands the message out when the body is in too.
template <typename Message>
ParseResult MessageParser<Message>::next(Message& out) {
  if (error_) return ParseResult::kError;
  auto fail = [this](const char* message) {
    error_ = true;
    error_message_ = message;
    return ParseResult::kError;
  };
  while (body_start_ == 0) {
    size_t eol = buffer_.find("\r\n", resume_);
    if (eol == std::string::npos) {
      resume_ = std::max(line_start_ + 1, buffer_.size()) - 1;
      return buffer_.size() > kMaxHeadBytes ? fail(kHeadTooLong)
                                            : ParseResult::kNeedMore;
    }
    if (eol + 2 > kMaxHeadBytes) return fail(kHeadTooLong);
    std::string_view line(buffer_.data() + line_start_, eol - line_start_);
    const char* error = nullptr;
    if (line_start_ == 0) {
      error = parse_start_line(line, pending_);
    } else if (line.empty()) {
      int64_t length = body_length(pending_.headers);
      if (length < 0) return fail("bad Content-Length");
      if (static_cast<uint64_t>(length) > kMaxBodyBytes) {
        return fail("body exceeds cap");
      }
      body_start_ = eol + 2;
      body_length_ = static_cast<size_t>(length);
    } else {
      error = parse_header_line(line, pending_.headers);
    }
    if (error != nullptr) return fail(error);
    line_start_ = resume_ = eol + 2;
  }
  size_t end = body_start_ + body_length_;
  if (buffer_.size() < end) return ParseResult::kNeedMore;
  pending_.body.assign(buffer_, body_start_, body_length_);
  buffer_.erase(0, end);
  out = std::move(pending_);
  pending_ = Message{};
  line_start_ = resume_ = body_start_ = body_length_ = 0;
  return ParseResult::kMessage;
}

template class MessageParser<Request>;
template class MessageParser<Response>;

std::optional<Request> parse_request(std::string_view text) {
  RequestParser parser;
  parser.feed(text);
  Request req;
  if (parser.next(req) != ParseResult::kMessage) return std::nullopt;
  return req;
}

std::optional<Response> parse_response(std::string_view text) {
  ResponseParser parser;
  parser.feed(text);
  Response resp;
  if (parser.next(resp) != ParseResult::kMessage) return std::nullopt;
  return resp;
}

}  // namespace sbroker::http
