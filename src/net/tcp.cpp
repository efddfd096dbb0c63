#include "net/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "util/log.h"

namespace sbroker::net {
namespace {

void set_nonblocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw std::runtime_error("fcntl O_NONBLOCK failed");
  }
}

sockaddr_in loopback(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

}  // namespace

std::pair<int, uint16_t> listen_tcp(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = loopback(port);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    throw std::runtime_error(std::string("bind failed: ") + strerror(errno));
  }
  if (listen(fd, 128) != 0) {
    close(fd);
    throw std::runtime_error("listen failed");
  }
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    close(fd);
    throw std::runtime_error("getsockname failed");
  }
  set_nonblocking(fd);
  return {fd, ntohs(addr.sin_port)};
}

int connect_tcp(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  set_nonblocking(fd);
  // Broker->backend traffic is many small pipelined writes; without this
  // they would sit out Nagle delays (accepted sockets already set it).
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr = loopback(port);
  int rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    close(fd);
    throw std::runtime_error(std::string("connect failed: ") + strerror(errno));
  }
  return fd;
}

std::shared_ptr<TcpConn> TcpConn::adopt(Reactor& reactor, int fd) {
  return std::shared_ptr<TcpConn>(new TcpConn(reactor, fd));
}

TcpConn::TcpConn(Reactor& reactor, int fd) : reactor_(reactor), fd_(fd) {}

TcpConn::~TcpConn() {
  if (fd_ >= 0) {
    reactor_.del_fd(fd_);
    reactor_.clear_teardown(fd_);
    close(fd_);
  }
}

void TcpConn::start(DataFn on_data, CloseFn on_close) {
  // Callbacks may be re-armed from inside the currently-running data
  // callback (e.g. a backend parking a finished connection); destroying
  // that closure mid-invocation would free captures its frame still uses.
  if (on_data_) {
    reactor_.defer_destroy([keep = std::move(on_data_)]() {});
  }
  on_data_ = std::move(on_data);
  on_close_ = std::move(on_close);
  if (registered_ || fd_ < 0) return;
  registered_ = true;
  auto self = shared_from_this();
  reactor_.add_fd(fd_, EPOLLIN, [self](uint32_t events) { self->on_events(events); });
  // If the reactor dies with this connection still open, break the
  // conn<->owner cycle its callbacks embody instead of leaking it.
  reactor_.set_teardown(fd_, [this]() { reactor_teardown(); });
}

void TcpConn::on_events(uint32_t events) {
  if (fd_ < 0) return;
  if (events & (EPOLLHUP | EPOLLERR)) {
    close_now();
    return;
  }
  if (events & EPOLLOUT) {
    flush();
    if (fd_ < 0) return;
  }
  if (events & EPOLLIN) handle_readable();
}

void TcpConn::handle_readable() {
  char buf[16384];
  while (fd_ >= 0) {
    ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      if (on_data_) on_data_(std::string_view(buf, static_cast<size_t>(n)));
      // A short read drained the socket; epoll is level-triggered, so
      // anything arriving later reports again instead of costing an EAGAIN
      // read here.
      if (static_cast<size_t>(n) < sizeof(buf)) return;
      continue;
    }
    if (n == 0) {
      close_now();
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    close_now();
    return;
  }
}

namespace {
// Appends below this coalesce into the tail segment; at or above it a moved
// string becomes its own segment (adopt, don't copy).
constexpr size_t kCoalesceLimit = 64 * 1024;
// iovecs per gather write; longer queues just loop.
constexpr int kMaxIov = 64;
}  // namespace

bool TcpConn::queue(std::string_view bytes) {
  if (fd_ < 0 || bytes.empty()) return false;
  if (segments_.empty() || segments_.back().size() + bytes.size() > kCoalesceLimit) {
    segments_.emplace_back(bytes);
  } else {
    segments_.back().append(bytes);
  }
  queued_bytes_ += bytes.size();
  return arm_flush();
}

bool TcpConn::queue(std::string&& bytes) {
  if (fd_ < 0 || bytes.empty()) return false;
  queued_bytes_ += bytes.size();
  if (!segments_.empty() && segments_.back().size() + bytes.size() <= kCoalesceLimit) {
    segments_.back().append(bytes);
  } else {
    segments_.push_back(std::move(bytes));
  }
  return arm_flush();
}

bool TcpConn::arm_flush() {
  if (flush_armed_) return false;
  flush_armed_ = true;
  reactor_.flush_at_cycle_end(shared_from_this());
  return true;
}

void TcpConn::run_armed_flush() {
  flush_armed_ = false;
  flush();
}

void TcpConn::flush() {
  while (fd_ >= 0 && queued_bytes_ > 0) {
    iovec iov[kMaxIov];
    int count = 0;
    size_t offset = head_;
    for (auto& segment : segments_) {
      if (count == kMaxIov) break;
      if (segment.size() > offset) {
        iov[count].iov_base = segment.data() + offset;
        iov[count].iov_len = segment.size() - offset;
        ++count;
      }
      offset = 0;
    }
    // sendmsg is writev plus flags: MSG_NOSIGNAL turns a write to a peer
    // that already closed into EPIPE (close below) instead of a SIGPIPE
    // that would kill the whole process.
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(count);
    ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      consume_queued(static_cast<size_t>(n));
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_now();
    return;
  }
  if (fd_ >= 0 && queued_bytes_ == 0 && shutdown_after_flush_) {
    close_now();
    return;
  }
  update_interest();
}

void TcpConn::consume_queued(size_t n) {
  queued_bytes_ -= n;
  while (n > 0) {
    size_t front_left = segments_.front().size() - head_;
    if (n >= front_left) {
      n -= front_left;
      head_ = 0;
      // The last segment is next cycle's coalescing tail: keep its buffer
      // (emptied) so steady-state replies append without reallocating. An
      // adopted oversized buffer is released instead of pinned.
      if (segments_.size() == 1 && segments_.front().capacity() <= 2 * kCoalesceLimit) {
        segments_.front().clear();
      } else {
        segments_.pop_front();
      }
    } else {
      head_ += n;
      n = 0;
    }
  }
}

void TcpConn::update_interest() {
  if (fd_ < 0) return;
  bool need_write = queued_bytes_ > 0;
  if (need_write == want_write_) return;
  want_write_ = need_write;
  reactor_.mod_fd(fd_, EPOLLIN | (need_write ? static_cast<uint32_t>(EPOLLOUT) : 0u));
}

void TcpConn::shutdown() {
  if (fd_ < 0) return;
  if (queued_bytes_ == 0) {
    close_now();
    return;
  }
  shutdown_after_flush_ = true;
  if (on_data_) {
    reactor_.defer_destroy([keep = std::move(on_data_)]() {});
    on_data_ = nullptr;
  }
}

void TcpConn::abort() { close_now(); }

void TcpConn::close_now() {
  if (fd_ < 0) return;
  reactor_.del_fd(fd_);
  reactor_.clear_teardown(fd_);
  close(fd_);
  fd_ = -1;
  // Drop the data callback: it commonly captures this connection's owner
  // (which holds the connection right back), so keeping it past close would
  // pin the whole cycle in memory for the reactor's lifetime. close_now()
  // is often reached from inside that very callback, so its destruction is
  // parked in the reactor's graveyard until the current stack unwinds.
  if (on_data_) {
    reactor_.defer_destroy([keep = std::move(on_data_)]() {});
    on_data_ = nullptr;
  }
  if (on_close_) {
    CloseFn cb = std::move(on_close_);
    on_close_ = nullptr;
    cb();
  }
}

void TcpConn::reactor_teardown() {
  // ~Reactor path only: the daemon is dying wholesale, with this connection
  // still open. Close the socket and park both callbacks — on_data_ is the
  // usual owner-cycle carrier, and on_close_ often captures the owner too.
  // on_close_ is deliberately NOT invoked: the owner is being destroyed, not
  // notified of a peer close, and firing it would mutate owner state (conn
  // maps, retry timers) mid-teardown.
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  if (on_data_ || on_close_) {
    reactor_.defer_destroy(
        [d = std::move(on_data_), c = std::move(on_close_)]() {});
  }
  on_data_ = nullptr;
  on_close_ = nullptr;
}

TcpListener::TcpListener(Reactor& reactor, uint16_t port, AcceptFn on_accept)
    : reactor_(reactor), on_accept_(std::move(on_accept)) {
  auto [fd, actual_port] = listen_tcp(port);
  fd_ = fd;
  port_ = actual_port;
  reactor_.add_fd(fd_, EPOLLIN, [this](uint32_t) {
    while (true) {
      int client = accept4(fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (client < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        SBROKER_WARN("tcp") << "accept failed: " << strerror(errno);
        return;
      }
      int one = 1;
      setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      on_accept_(client);
    }
  });
}

TcpListener::~TcpListener() {
  reactor_.del_fd(fd_);
  close(fd_);
}

}  // namespace sbroker::net
