// TcpConn's outgoing segment queue: bytes queued across many reactor cycles
// must reach the peer intact and in order, through partial gather writes,
// coalesced small appends, adopted buffers and segments past the 64 KiB
// coalescing limit, and with the drained tail segment reused between cycles.
// Everything queued in one cycle leaves in one gather write, and reads stop
// at a short read without losing data or the close that follows it.
#include "net/tcp.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

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

TEST(TcpConnQueue, OneCycleOfWritesLeavesInOneGatherWrite) {
  // A SOCK_SEQPACKET pair keeps every sendmsg a separate record, so each
  // read on the peer returns exactly one of the connection's writes.
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_SEQPACKET | SOCK_NONBLOCK | SOCK_CLOEXEC, 0, fds), 0);
  Reactor reactor;
  auto conn = TcpConn::adopt(reactor, fds[0]);
  conn->start([](std::string_view) {}, [] {});
  auto read_records = [&]() {
    std::vector<std::string> records;
    char buf[65536];
    ssize_t n;
    while ((n = ::read(fds[1], buf, sizeof(buf))) > 0) {
      records.emplace_back(buf, static_cast<size_t>(n));
    }
    return records;
  };

  // Queued outside a dispatch cycle: the first queue arms the flush, the
  // rest ride it, and poll_once writes it before it waits.
  EXPECT_TRUE(conn->queue(std::string_view("a1")));
  EXPECT_FALSE(conn->queue(std::string("b2")));
  conn->send("c3");
  EXPECT_EQ(conn->pending_bytes(), 6u);
  EXPECT_TRUE(read_records().empty());
  reactor.poll_once(0);
  EXPECT_EQ(read_records(), std::vector<std::string>{"a1b2c3"});

  // Writers in one cycle (two timers and a posted task) share one write.
  reactor.add_timer(0.0, [&] { conn->queue(std::string_view("t1")); });
  reactor.add_timer(0.0, [&] { conn->send("t2"); });
  reactor.post([&] { conn->queue(std::string_view("p1")); });
  reactor.poll_once(0);
  EXPECT_EQ(read_records(), std::vector<std::string>{"p1t1t2"});

  conn->abort();
  close(fds[1]);
}

TEST(TcpConnQueue, BytesQueuedOutsideACycleLeaveBeforeTheWait) {
  // Two connections on one reactor: bytes queued on `a` between cycles
  // must be written before poll_once blocks, so that very wait wakes for
  // `b`'s read instead of sleeping out its timeout first.
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0, fds), 0);
  Reactor reactor;
  auto a = TcpConn::adopt(reactor, fds[0]);
  auto b = TcpConn::adopt(reactor, fds[1]);
  std::string received;
  a->start([](std::string_view) {}, [] {});
  b->start([&](std::string_view bytes) { received.append(bytes); }, [] {});

  a->queue(std::string_view("ping"));
  double start = reactor.now();
  reactor.poll_once(5000);
  EXPECT_EQ(received, "ping");
  EXPECT_LT(reactor.now() - start, 2.0);

  a->abort();
  b->abort();
}

TEST(TcpConnRead, DataThenFinReachesOnDataThenClosesOnce) {
  Reactor reactor;
  std::shared_ptr<TcpConn> conn;
  std::vector<std::string> events;
  TcpListener listener(reactor, 0, [&](int fd) {
    conn = TcpConn::adopt(reactor, fd);
    conn->start([&](std::string_view bytes) { events.emplace_back(bytes); },
                [&] { events.emplace_back("<close>"); });
  });
  int client = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(client, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(listener.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  // The bytes and the FIN are both waiting before the server reads once.
  ASSERT_EQ(::write(client, "last words", 10), 10);
  ::close(client);

  for (int i = 0; i < 200 && !(conn && conn->closed()); ++i) reactor.poll_once(10);
  for (int i = 0; i < 5; ++i) reactor.poll_once(0);
  ASSERT_TRUE(conn && conn->closed());
  std::string data;
  for (size_t i = 0; i + 1 < events.size(); ++i) data += events[i];
  EXPECT_EQ(data, "last words");
  EXPECT_EQ(std::count(events.begin(), events.end(), "<close>"), 1);
  EXPECT_EQ(events.back(), "<close>");
}

TEST(TcpConnRead, BurstLargerThanTheReadBufferArrivesWholeAndInOrder) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0, fds), 0);
  Reactor reactor;
  std::string received;
  auto conn = TcpConn::adopt(reactor, fds[0]);
  conn->start([&](std::string_view bytes) { received.append(bytes); }, [] {});

  // 100 KiB, six times the 16 KiB read buffer, written before any read.
  uint64_t offset = 0;
  const std::string burst = chunk(offset, 100 * 1024);
  size_t written = 0;
  for (int spin = 0; spin < 100000 && received.size() < burst.size(); ++spin) {
    if (written < burst.size()) {
      ssize_t n = ::write(fds[1], burst.data() + written, burst.size() - written);
      if (n > 0) written += static_cast<size_t>(n);
    }
    reactor.poll_once(0);
  }
  ASSERT_EQ(received.size(), burst.size());
  EXPECT_TRUE(received == burst) << "stream differs from what was written";

  conn->abort();
  close(fds[1]);
}

}  // namespace
}  // namespace sbroker::net
