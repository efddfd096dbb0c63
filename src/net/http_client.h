// Blocking HTTP and binary-frame clients for tests, examples and benches.
//
// These run on the *caller's* thread with ordinary blocking sockets — the
// natural shape for a test driving a reactor that runs on another thread.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "http/message.h"
#include "net/frame.h"
#include "net/net_config.h"

namespace sbroker::net {

/// One-shot HTTP exchange with 127.0.0.1:`port`. Opens a connection, sends
/// `request`, reads one response. nullopt on connect/IO/parse failure or
/// after `timeout_ms`.
std::optional<http::Response> http_fetch(uint16_t port, const http::Request& request,
                                         int timeout_ms = kDefaultClientTimeoutMs);

/// Reply from a FrameClient exchange; owns its payload (unlike frame::Reply,
/// whose payload is a view into a receive buffer).
struct FrameReply {
  uint64_t request_id = 0;
  http::Fidelity fidelity = http::Fidelity::kFull;
  uint8_t flags = 0;
  std::string payload;
};

/// Persistent blocking connection speaking the binary frame protocol
/// (net/frame.h) against the daemon's main port.
class FrameClient {
 public:
  /// Connects immediately; throws std::runtime_error on failure.
  explicit FrameClient(uint16_t port, int timeout_ms = kDefaultClientTimeoutMs);
  ~FrameClient();
  FrameClient(const FrameClient&) = delete;
  FrameClient& operator=(const FrameClient&) = delete;

  /// One frame exchange: sends the request (every field, transaction tag
  /// included), waits for the matching reply. nullopt on IO error or
  /// timeout.
  std::optional<FrameReply> call(const frame::Request& request);
  /// Shorthand for a request outside any transaction.
  std::optional<FrameReply> call(uint64_t request_id, std::string_view query,
                                 uint8_t qos_level = 1, uint32_t deadline_ms = 0) {
    return call(frame::Request{request_id, qos_level, deadline_ms, query});
  }

  /// Pipelined burst: encodes every request into one send (ids are
  /// `first_id, first_id+1, ...`), then collects that many replies. The
  /// returned vector is shorter than `queries` if the connection failed
  /// mid-burst.
  std::vector<FrameReply> call_burst(uint64_t first_id,
                                     const std::vector<std::string>& queries,
                                     uint8_t qos_level = 1,
                                     uint32_t deadline_ms = 0);

  /// Raw escape hatches for protocol-robustness tests: push arbitrary bytes
  /// (e.g. half a frame) and read back one reply frame.
  bool send_raw(std::string_view bytes);
  std::optional<FrameReply> read_reply();

 private:
  int fd_;
  int timeout_ms_;
  std::string inbox_;
  std::string outbox_;  ///< encode scratch, capacity reused across calls
};

}  // namespace sbroker::net
