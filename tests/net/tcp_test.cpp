// TcpConn's outgoing segment queue: bytes queued across many reactor cycles
// must reach the peer intact and in order, through partial gather writes,
// coalesced small appends, adopted buffers and segments past the 64 KiB
// coalescing limit, and with the drained tail segment reused between cycles.
#include "net/tcp.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "net/reactor.h"

namespace sbroker::net {
namespace {

/// Reads whatever the peer socket holds right now, up to `limit` bytes.
size_t drain_peer(int fd, std::string& received, size_t limit) {
  char buf[8192];
  size_t total = 0;
  while (total < limit) {
    size_t want = std::min(sizeof(buf), limit - total);
    ssize_t n = ::read(fd, buf, want);
    if (n <= 0) break;
    received.append(buf, static_cast<size_t>(n));
    total += static_cast<size_t>(n);
  }
  return total;
}

/// Position-dependent bytes: any reorder, loss or duplication of a span
/// changes the stream, so a plain equality check catches it.
std::string chunk(uint64_t& offset, size_t size) {
  std::string out(size, '\0');
  for (size_t i = 0; i < size; ++i) {
    uint64_t x = (offset + i) * 0x9e3779b97f4a7c15ULL;
    out[i] = static_cast<char>(x >> 56);
  }
  offset += size;
  return out;
}

TEST(TcpConnQueue, BytesArriveInOrderAcrossCyclesAndPartialWrites) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0, fds), 0);
  // A small send buffer forces partial gather writes almost every cycle.
  int sndbuf = 8192;
  ASSERT_EQ(setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf)), 0);

  Reactor reactor;
  auto conn = TcpConn::adopt(reactor, fds[0]);
  conn->start([](std::string_view) {}, [] {});

  std::string expected;
  std::string received;
  uint64_t offset = 0;
  uint64_t rng = 42;
  auto next = [&rng](uint64_t bound) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return (rng >> 33) % bound;
  };
  bool saw_partial = false;
  // A cycle that drains completely leaves an emptied tail segment behind;
  // the next cycle appends into it, and nothing old may be resent.
  bool saw_full_drain = false;

  for (int cycle = 0; cycle < 200; ++cycle) {
    // A reactor cycle's worth of replies: mostly small coalescing frames,
    // sometimes an adopted buffer, sometimes one past the coalescing limit
    // (both as a copied view and as an adopted string).
    int frames = 1 + static_cast<int>(next(40));
    for (int f = 0; f < frames; ++f) {
      std::string bytes = chunk(offset, 1 + next(200));
      expected += bytes;
      if (next(4) == 0) {
        conn->queue(std::move(bytes));
      } else {
        conn->queue(std::string_view(bytes));
      }
    }
    if (cycle % 17 == 0) {
      std::string big = chunk(offset, 64 * 1024 + 1 + next(64 * 1024));
      expected += big;
      if (cycle % 2 == 0) {
        conn->queue(std::move(big));
      } else {
        conn->queue(std::string_view(big));
      }
    }
    conn->flush();
    if (conn->pending_bytes() > 0) {
      saw_partial = true;
    } else {
      saw_full_drain = true;
    }
    // The peer reads a random amount; the rest drains on EPOLLOUT.
    drain_peer(fds[1], received, next(32 * 1024));
    reactor.poll_once(0);
  }

  for (int spin = 0; spin < 100000 && received.size() < expected.size(); ++spin) {
    drain_peer(fds[1], received, expected.size() - received.size());
    reactor.poll_once(0);
  }

  EXPECT_TRUE(saw_partial);
  EXPECT_TRUE(saw_full_drain);
  EXPECT_EQ(conn->pending_bytes(), 0u);
  ASSERT_EQ(received.size(), expected.size());
  EXPECT_TRUE(received == expected) << "stream differs from what was queued";

  conn->abort();
  close(fds[1]);
}

}  // namespace
}  // namespace sbroker::net
