// HTTP/1.x message model (subset).
//
// Enough of HTTP for the testbeds: request line + headers + Content-Length
// bodies. Header lookup is case-insensitive per RFC 9110. The model also
// carries the two extensions the paper relies on:
//   * the MGET batch method (Franks' MGET proposal, ref [11] in the paper)
//   * the X-QoS-Level request header carrying the client's QoS class
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sbroker::http {

/// Case-insensitive header collection (preserves last-set spelling of the
/// name). Stored as a flat (name, value) vector scanned with in-place
/// case-insensitive compares: real messages carry a handful of headers, so
/// a linear scan beats a map — and unlike the old lowered-key map it
/// allocates nothing per lookup and only the stored strings per set.
class Headers {
 public:
  void set(std::string name, std::string value);
  /// nullopt when absent (copies the value).
  std::optional<std::string> get(std::string_view name) const;
  /// Zero-copy lookup; the view is invalidated by any later mutation.
  std::optional<std::string_view> get_view(std::string_view name) const;
  bool has(std::string_view name) const { return find(name) != nullptr; }
  size_t size() const { return entries_.size(); }

  /// Iteration in insertion order.
  const std::vector<std::pair<std::string, std::string>>& entries() const {
    return entries_;
  }

 private:
  const std::pair<std::string, std::string>* find(std::string_view name) const;

  std::vector<std::pair<std::string, std::string>> entries_;
};

struct Request {
  std::string method = "GET";
  std::string target = "/";
  std::string version = "HTTP/1.1";
  Headers headers;
  std::string body;

  /// Serializes with a correct Content-Length (set iff body non-empty or a
  /// length header was already present).
  std::string serialize() const;
  /// Appends the serialized form to `out` (no temporary string).
  void serialize_into(std::string& out) const;
};

struct Response {
  int status = 200;
  std::string reason = "OK";
  std::string version = "HTTP/1.1";
  Headers headers;
  std::string body;

  std::string serialize() const;
  /// Appends the serialized form to `out`.
  void serialize_into(std::string& out) const;
};

/// Standard reason phrase for the handful of codes this repo uses.
std::string_view reason_phrase(int status);

/// Builds a response with status/body and the right reason phrase.
Response make_response(int status, std::string body);

/// Header name constants.
inline constexpr std::string_view kMgetHeader = "X-MGET-URIs";
/// Answer-by budget in milliseconds; backend channels forward a request's
/// remaining budget to the backend in it.
inline constexpr std::string_view kDeadlineHeader = "X-Deadline-Ms";

}  // namespace sbroker::http
