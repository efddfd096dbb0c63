#include "http/parser.h"

#include "util/strings.h"

namespace sbroker::http {
namespace {

constexpr const char* kHeadTooLong = "message head exceeds cap";

/// Parses the header block starting after the start line. Returns the body
/// offset (position just past the blank line) or npos when incomplete.
/// Sets `error` on malformed header lines.
size_t parse_header_block(std::string_view buffer, size_t start, Headers& headers,
                          const char** error) {
  size_t pos = start;
  while (true) {
    size_t eol = buffer.find("\r\n", pos);
    if (eol == std::string_view::npos) return std::string_view::npos;
    if (eol == pos) return eol + 2;  // blank line: end of headers
    std::string_view line = buffer.substr(pos, eol - pos);
    size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      *error = "header line missing ':'";
      return std::string_view::npos;
    }
    std::string_view name = util::trim(line.substr(0, colon));
    std::string_view value = util::trim(line.substr(colon + 1));
    if (name.empty()) {
      *error = "empty header name";
      return std::string_view::npos;
    }
    headers.set(std::string(name), std::string(value));
    pos = eol + 2;
  }
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

/// What both parsers share once the start line (ending at `line_end`) is
/// parsed: the header block, the head and body caps, and the body. On
/// kMessage the message is consumed from `buffer`; on kError `*error` says
/// why.
ParseResult parse_rest(std::string& buffer, size_t line_end, Headers& headers,
                       std::string& body, const char** error) {
  size_t body_start = parse_header_block(buffer, line_end + 2, headers, error);
  if (*error != nullptr) return ParseResult::kError;
  if (body_start == std::string::npos) {
    if (buffer.size() <= kMaxHeadBytes) return ParseResult::kNeedMore;
    *error = kHeadTooLong;
    return ParseResult::kError;
  }
  if (body_start > kMaxHeadBytes) {
    *error = kHeadTooLong;
    return ParseResult::kError;
  }
  int64_t length = body_length(headers);
  if (length < 0) {
    *error = "bad Content-Length";
    return ParseResult::kError;
  }
  if (static_cast<uint64_t>(length) > kMaxBodyBytes) {
    *error = "body exceeds cap";
    return ParseResult::kError;
  }
  size_t end = body_start + static_cast<size_t>(length);
  if (buffer.size() < end) return ParseResult::kNeedMore;
  body = buffer.substr(body_start, static_cast<size_t>(length));
  buffer.erase(0, end);
  return ParseResult::kMessage;
}

}  // namespace

void RequestParser::feed(std::string_view bytes) { buffer_.append(bytes); }

ParseResult RequestParser::fail(const char* message) {
  error_ = true;
  error_message_ = message;
  return ParseResult::kError;
}

ParseResult RequestParser::next(Request& out) {
  if (error_) return ParseResult::kError;
  size_t line_end = buffer_.find("\r\n");
  if (line_end == std::string::npos) {
    return buffer_.size() > kMaxHeadBytes ? fail(kHeadTooLong) : ParseResult::kNeedMore;
  }

  std::string_view start_line = std::string_view(buffer_).substr(0, line_end);
  auto parts = util::split_skip_empty(start_line, ' ');
  if (parts.size() != 3) return fail("malformed request line");

  Request req;
  req.method = std::string(parts[0]);
  req.target = std::string(parts[1]);
  req.version = std::string(parts[2]);

  const char* error = nullptr;
  ParseResult result = parse_rest(buffer_, line_end, req.headers, req.body, &error);
  if (result == ParseResult::kError) return fail(error);
  if (result == ParseResult::kMessage) out = std::move(req);
  return result;
}

void ResponseParser::feed(std::string_view bytes) { buffer_.append(bytes); }

ParseResult ResponseParser::fail(const char* message) {
  error_ = true;
  error_message_ = message;
  return ParseResult::kError;
}

ParseResult ResponseParser::next(Response& out) {
  if (error_) return ParseResult::kError;
  size_t line_end = buffer_.find("\r\n");
  if (line_end == std::string::npos) {
    return buffer_.size() > kMaxHeadBytes ? fail(kHeadTooLong) : ParseResult::kNeedMore;
  }

  std::string_view start_line = std::string_view(buffer_).substr(0, line_end);
  // Status line: VERSION SP STATUS SP REASON (reason may contain spaces).
  size_t sp1 = start_line.find(' ');
  size_t sp2 = sp1 == std::string_view::npos ? std::string_view::npos
                                             : start_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos) return fail("malformed status line");
  Response resp;
  resp.version = std::string(start_line.substr(0, sp1));
  std::string_view status_text = sp2 == std::string_view::npos
                                     ? start_line.substr(sp1 + 1)
                                     : start_line.substr(sp1 + 1, sp2 - sp1 - 1);
  auto status = util::parse_int(status_text);
  if (!status || *status < 100 || *status > 599) return fail("bad status code");
  resp.status = static_cast<int>(*status);
  resp.reason = sp2 == std::string_view::npos ? "" : std::string(start_line.substr(sp2 + 1));

  const char* error = nullptr;
  ParseResult result = parse_rest(buffer_, line_end, resp.headers, resp.body, &error);
  if (result == ParseResult::kError) return fail(error);
  if (result == ParseResult::kMessage) out = std::move(resp);
  return result;
}

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
