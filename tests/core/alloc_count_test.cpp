// Allocation-count regression test for the cache-hit fast path.
//
// A global operator new hook counts heap allocations; the test primes the
// result cache, then drives try_submit_fast in a steady state and asserts
// the per-request allocation count stays at a small fixed bound (the whole
// point of the per-request arena + reply views). This binary carries its own
// allocator hook, so it is built only in plain trees — the sanitizers
// interpose their own allocators (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "core/arena.h"
#include "core/broker.h"
#include "net/reactor.h"
#include "net/tcp.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace sbroker::core {
namespace {

class PrimeBackend : public Backend {
 public:
  void invoke(const Call& call, Completion done) override {
    done(0.0, true, "value for " + call.payload);
  }
};

/// Key long enough to defeat SSO: a hidden std::string copy anywhere on the
/// hot path shows up as an allocation, not as silent small-string reuse.
std::string long_key(int i) {
  return "/object-with-a-deliberately-long-cache-key-beyond-sso-" +
         std::to_string(i);
}

TEST(AllocCount, CacheHitFastPathStaysAllocationFree) {
  BrokerConfig cfg;
  cfg.rules = QosRules{3, 20.0};
  cfg.enable_cache = true;
  cfg.cache_ttl = 1e9;
  // The flight recorder appends per-event records; the perf-critical
  // deployment shape keeps it off, and so does this regression bound.
  cfg.obs.trace = false;
  ServiceBroker broker("alloc", cfg);
  broker.add_backend(std::make_shared<PrimeBackend>());

  constexpr int kKeys = 8;
  constexpr int kRounds = 1000;

  // Prime: one full-path submit per key fills the cache.
  for (int i = 0; i < kKeys; ++i) {
    http::BrokerRequest req;
    req.request_id = static_cast<uint64_t>(i + 1);
    req.qos_level = 3;
    req.payload = long_key(i);
    bool replied = false;
    broker.submit(0.0, req, [&](const http::BrokerReply& r) {
      replied = r.fidelity == http::Fidelity::kFull;
    });
    ASSERT_TRUE(replied) << i;
  }

  // Pre-build the request objects so the measured loop exercises only the
  // broker, not the test's own string construction.
  std::vector<http::BrokerRequest> requests;
  for (int i = 0; i < kKeys; ++i) {
    http::BrokerRequest req;
    req.request_id = 1000u + static_cast<uint64_t>(i);
    req.qos_level = static_cast<uint8_t>(1 + i % 3);
    req.payload = long_key(i);
    requests.push_back(std::move(req));
  }

  Arena scratch;
  size_t served = 0;
  size_t payload_bytes = 0;
  auto on_reply = [&](const ReplyView& r) {
    served += 1;
    payload_bytes += r.payload.size();
  };

  // Warm up: first touches may grow histograms buckets, arena blocks, hash
  // tables — one-time costs the steady state is measured without.
  for (int i = 0; i < kKeys; ++i) {
    scratch.reset();
    ASSERT_TRUE(broker.try_submit_fast(1.0, requests[i], scratch, on_reply));
  }

  served = 0;
  uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kKeys; ++i) {
      scratch.reset();
      broker.try_submit_fast(2.0, requests[i], scratch, on_reply);
    }
  }
  uint64_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(served, static_cast<size_t>(kKeys) * kRounds);
  EXPECT_GT(payload_bytes, 0u);

  // The regression bound: the dup=0 cache-hit path must average well under
  // one heap allocation per request (steady state is fully arena-served; a
  // stray periodic allocation is tolerated, a per-request one is not).
  uint64_t total = after - before;
  uint64_t served_total = static_cast<uint64_t>(kKeys) * kRounds;
  EXPECT_LT(total * 2, served_total)
      << total << " allocations across " << served_total << " cache hits";
}

TEST(AllocCount, ArenaStoreDoesNotAllocatePerRequest) {
  Arena arena;
  std::string value(512, 'x');
  // First store may grow the arena; afterwards reset() retains the block.
  arena.store(value);
  arena.reset();
  uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    std::string_view stored = arena.store(value);
    ASSERT_EQ(stored.size(), value.size());
    arena.reset();
  }
  uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
}

TEST(AllocCount, TcpConnReusesTailSegmentAcrossCycles) {
  // The daemon queues each reply frame into a connection's tail segment and
  // flushes once per reactor cycle. Once a cycle drains completely, the next
  // one must append into the same buffer, not re-grow a fresh string.
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0, fds), 0);
  net::Reactor reactor;
  auto conn = net::TcpConn::adopt(reactor, fds[0]);
  conn->start([](std::string_view) {}, [] {});

  // ~3.5 KB per cycle in 40 small frames, like a pipelined hit burst.
  const std::string frame(88, 'r');
  char sink[8192];
  auto cycle = [&]() {
    for (int f = 0; f < 40; ++f) conn->queue(std::string_view(frame));
    conn->flush();
    ASSERT_EQ(conn->pending_bytes(), 0u);
    while (::read(fds[1], sink, sizeof(sink)) > 0) {
    }
  };
  cycle();  // warm-up: the tail grows once

  constexpr int kCycles = 1000;
  uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kCycles; ++i) cycle();
  uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_LT(after - before, static_cast<uint64_t>(kCycles) / 10)
      << (after - before) << " allocations across " << kCycles << " cycles";

  conn->abort();
  close(fds[1]);
}

TEST(AllocCount, ReactorCycleWithQueuedRepliesAllocatesNothing) {
  // The whole write path of a steady-state cycle: queue() arms the
  // connection's cycle-end flush, poll_once runs it as one gather write and
  // drains its (empty) posted and graveyard queues. None of it may allocate
  // once warm: not the flush list, not the queue swaps, not the tail
  // segment.
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0, fds), 0);
  net::Reactor reactor;
  auto conn = net::TcpConn::adopt(reactor, fds[0]);
  conn->start([](std::string_view) {}, [] {});

  const std::string frame(88, 'r');
  char sink[8192];
  auto cycle = [&]() {
    for (int f = 0; f < 40; ++f) conn->queue(std::string_view(frame));
    reactor.poll_once(0);
    ASSERT_EQ(conn->pending_bytes(), 0u);
    while (::read(fds[1], sink, sizeof(sink)) > 0) {
    }
  };
  cycle();  // warm-up: the tail segment and the flush list grow once

  constexpr int kCycles = 1000;
  uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kCycles; ++i) cycle();
  uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_LT(after - before, 100u)
      << (after - before) << " allocations across " << kCycles << " cycles";

  conn->abort();
  close(fds[1]);
}

}  // namespace
}  // namespace sbroker::core
