// Non-blocking TCP primitives on the reactor.
//
// `TcpConn` owns a connected socket: reads are pushed to `on_data`, writes
// are buffered and leave in one gather write at the end of the reactor
// cycle (the rest as EPOLLOUT allows), close/error reaches `on_close`
// exactly once. `TcpListener` accepts and hands raw fds to its
// callback. IPv4 loopback is all the testbeds need; addresses are
// "host:port" with numeric hosts.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "net/reactor.h"

namespace sbroker::net {

/// Creates a non-blocking listening socket on 127.0.0.1:`port` (0 picks a
/// free port). Returns {fd, actual port}; throws std::runtime_error.
std::pair<int, uint16_t> listen_tcp(uint16_t port);

/// Non-blocking connect to 127.0.0.1:`port`. Returns the fd (connection may
/// still be in progress); throws std::runtime_error on immediate failure.
int connect_tcp(uint16_t port);

class TcpConn : public std::enable_shared_from_this<TcpConn> {
 public:
  using DataFn = std::function<void(std::string_view)>;
  using CloseFn = std::function<void()>;

  /// Takes ownership of `fd` (must be non-blocking) and registers with the
  /// reactor. Use through shared_ptr (enable_shared_from_this).
  static std::shared_ptr<TcpConn> adopt(Reactor& reactor, int fd);

  ~TcpConn();
  TcpConn(const TcpConn&) = delete;
  TcpConn& operator=(const TcpConn&) = delete;

  /// Must be set before data can arrive; call right after adopt(). Calling
  /// start() again replaces both callbacks (connection reuse by a new owner).
  void start(DataFn on_data, CloseFn on_close);

  /// Buffers `bytes` and arms this connection's cycle-end flush (see
  /// Reactor::flush_at_cycle_end) unless one is armed already, so everything
  /// every writer queues during one reactor wakeup leaves in one gather
  /// write. Small appends coalesce into the tail segment; the rvalue
  /// overload adopts a large buffer without copying. Returns true when this
  /// call armed the flush, which owners count as one coalesced write.
  bool queue(std::string_view bytes);
  bool queue(std::string&& bytes);
  /// Same as queue().
  void send(std::string_view bytes) { queue(bytes); }

  /// Writes everything queued now, with one gather write per call (as much
  /// as the socket takes; the rest drains on EPOLLOUT). A peer that already
  /// closed yields EPIPE and closes the connection; it never raises SIGPIPE.
  void flush();

  /// Graceful close: flushes buffered writes, then closes. Bytes read after
  /// this are dropped.
  void shutdown();

  /// Immediate close.
  void abort();

  bool closed() const { return fd_ < 0; }
  int fd() const { return fd_; }
  /// Bytes accepted but not yet written.
  size_t pending_bytes() const { return queued_bytes_; }

 private:
  friend class Reactor;
  TcpConn(Reactor& reactor, int fd);

  /// Arms the cycle-end flush; false when one is armed already.
  bool arm_flush();
  /// The reactor's call of an armed flush.
  void run_armed_flush();
  void on_events(uint32_t events);
  void handle_readable();
  void consume_queued(size_t n);
  void close_now();
  void reactor_teardown();
  void update_interest();

  Reactor& reactor_;
  int fd_;
  DataFn on_data_;
  CloseFn on_close_;
  /// Outgoing bytes as a segment list: head_ bytes of the front segment are
  /// already written. Segments are what writev's iovecs point at. Once the
  /// queue drains, one emptied segment stays behind for its capacity.
  std::deque<std::string> segments_;
  size_t head_ = 0;
  size_t queued_bytes_ = 0;
  bool shutdown_after_flush_ = false;
  bool flush_armed_ = false;
  bool want_write_ = false;
  bool registered_ = false;
};

class TcpListener {
 public:
  /// Called with each accepted (already non-blocking) fd.
  using AcceptFn = std::function<void(int fd)>;

  /// Listens on 127.0.0.1:`port` (0 = ephemeral).
  TcpListener(Reactor& reactor, uint16_t port, AcceptFn on_accept);
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  uint16_t port() const { return port_; }

 private:
  Reactor& reactor_;
  int fd_;
  uint16_t port_;
  AcceptFn on_accept_;
};

}  // namespace sbroker::net
