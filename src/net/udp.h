// Non-blocking UDP on the reactor, plus a blocking client for tests.
//
// The paper's distributed-model prototype exchanges broker messages "through
// lightweight UDP"; BrokerDaemon answers the datagrams of such a socket.
// One frame (net/frame.h) per datagram — the header announces the frame's
// length, so a datagram either holds exactly one frame or is dropped.
#pragma once

#include <netinet/in.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "net/net_config.h"
#include "net/reactor.h"

namespace sbroker::net {

class UdpSocket {
 public:
  /// (payload, sender). Reply with send_to(sender, ...).
  using DatagramFn = std::function<void(std::string_view, const sockaddr_in&)>;

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and registers with the reactor.
  UdpSocket(Reactor& reactor, uint16_t port, DatagramFn on_datagram);
  ~UdpSocket();
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  /// Fire-and-forget send; silently drops on transient errors (UDP).
  void send_to(const sockaddr_in& dest, std::string_view payload);

  uint16_t port() const { return port_; }
  uint64_t received() const { return received_; }
  uint64_t sent() const { return sent_; }

 private:
  Reactor& reactor_;
  int fd_;
  uint16_t port_;
  DatagramFn on_datagram_;
  uint64_t received_ = 0;
  uint64_t sent_ = 0;
};

/// Blocking UDP exchange helper for tests/examples: sends `payload` to
/// 127.0.0.1:`port` and waits up to `timeout_ms` for one reply datagram.
std::optional<std::string> udp_exchange(uint16_t port, std::string_view payload,
                                        int timeout_ms = kDefaultClientTimeoutMs);

}  // namespace sbroker::net
