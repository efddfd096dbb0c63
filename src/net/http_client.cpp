#include "net/http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "http/parser.h"

namespace sbroker::net {
namespace {

int blocking_connect(uint16_t port, int timeout_ms) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, std::string_view bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

std::optional<http::Response> http_fetch(uint16_t port, const http::Request& request,
                                         int timeout_ms) {
  int fd = blocking_connect(port, timeout_ms);
  if (fd < 0) return std::nullopt;
  if (!send_all(fd, request.serialize())) {
    close(fd);
    return std::nullopt;
  }
  http::ResponseParser parser;
  http::Response resp;
  char buf[16384];
  while (true) {
    auto result = parser.next(resp);
    if (result == http::ParseResult::kMessage) {
      close(fd);
      return resp;
    }
    if (result == http::ParseResult::kError) break;
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // timeout, error, or EOF before a full message
    parser.feed(std::string_view(buf, static_cast<size_t>(n)));
  }
  close(fd);
  return std::nullopt;
}

FrameClient::FrameClient(uint16_t port, int timeout_ms) : timeout_ms_(timeout_ms) {
  fd_ = blocking_connect(port, timeout_ms);
  if (fd_ < 0) throw std::runtime_error("FrameClient: connect failed");
}

FrameClient::~FrameClient() {
  if (fd_ >= 0) close(fd_);
}

bool FrameClient::send_raw(std::string_view bytes) {
  return fd_ >= 0 && send_all(fd_, bytes);
}

std::optional<FrameReply> FrameClient::read_reply() {
  if (fd_ < 0) return std::nullopt;
  char buf[16384];
  while (true) {
    frame::Reply decoded;
    size_t consumed = 0;
    frame::ParseResult r = frame::parse_reply(inbox_, decoded, &consumed);
    if (r == frame::ParseResult::kFrame) {
      FrameReply reply{decoded.request_id, decoded.fidelity, decoded.flags,
                       std::string(decoded.payload)};
      inbox_.erase(0, consumed);
      return reply;
    }
    if (r == frame::ParseResult::kError) return std::nullopt;
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) return std::nullopt;
    inbox_.append(buf, static_cast<size_t>(n));
  }
}

std::optional<FrameReply> FrameClient::call(const frame::Request& request) {
  outbox_.clear();
  frame::encode_request(request, outbox_);
  if (!send_raw(outbox_)) return std::nullopt;
  return read_reply();
}

std::vector<FrameReply> FrameClient::call_burst(
    uint64_t first_id, const std::vector<std::string>& queries,
    uint8_t qos_level, uint32_t deadline_ms) {
  std::vector<FrameReply> replies;
  outbox_.clear();
  for (size_t i = 0; i < queries.size(); ++i) {
    frame::Request req{first_id + i, qos_level, deadline_ms, queries[i]};
    frame::encode_request(req, outbox_);
  }
  if (!send_raw(outbox_)) return replies;
  replies.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto reply = read_reply();
    if (!reply) break;
    replies.push_back(std::move(*reply));
  }
  return replies;
}

}  // namespace sbroker::net
