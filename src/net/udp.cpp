#include "net/udp.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "util/log.h"

namespace sbroker::net {
namespace {

sockaddr_in loopback(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

constexpr size_t kMaxDatagram = 64 * 1024;

}  // namespace

UdpSocket::UdpSocket(Reactor& reactor, uint16_t port, DatagramFn on_datagram)
    : reactor_(reactor), on_datagram_(std::move(on_datagram)) {
  fd_ = socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::runtime_error("udp socket failed");
  sockaddr_in addr = loopback(port);
  if (bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd_);
    throw std::runtime_error(std::string("udp bind failed: ") + strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    close(fd_);
    throw std::runtime_error("udp getsockname failed");
  }
  port_ = ntohs(addr.sin_port);

  reactor_.add_fd(fd_, EPOLLIN, [this](uint32_t) {
    char buf[kMaxDatagram];
    while (true) {
      sockaddr_in from{};
      socklen_t from_len = sizeof(from);
      ssize_t n = recvfrom(fd_, buf, sizeof(buf), 0,
                           reinterpret_cast<sockaddr*>(&from), &from_len);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        SBROKER_WARN("udp") << "recvfrom failed: " << strerror(errno);
        return;
      }
      ++received_;
      on_datagram_(std::string_view(buf, static_cast<size_t>(n)), from);
    }
  });
}

UdpSocket::~UdpSocket() {
  reactor_.del_fd(fd_);
  close(fd_);
}

void UdpSocket::send_to(const sockaddr_in& dest, std::string_view payload) {
  ssize_t n = sendto(fd_, payload.data(), payload.size(), 0,
                     reinterpret_cast<const sockaddr*>(&dest), sizeof(dest));
  if (n == static_cast<ssize_t>(payload.size())) {
    ++sent_;
  } else {
    SBROKER_DEBUG("udp") << "sendto dropped " << payload.size() << " bytes";
  }
}

std::optional<std::string> udp_exchange(uint16_t port, std::string_view payload,
                                        int timeout_ms) {
  int fd = socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return std::nullopt;
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in dest = loopback(port);
  if (sendto(fd, payload.data(), payload.size(), 0,
             reinterpret_cast<sockaddr*>(&dest),
             sizeof(dest)) != static_cast<ssize_t>(payload.size())) {
    close(fd);
    return std::nullopt;
  }
  char buf[kMaxDatagram];
  ssize_t n = recv(fd, buf, sizeof(buf), 0);
  close(fd);
  if (n < 0) return std::nullopt;
  return std::string(buf, static_cast<size_t>(n));
}

}  // namespace sbroker::net
