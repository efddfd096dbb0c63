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

// Every replacement stays out of line, so GCC's -Wmismatched-new-delete never
// sees an inlined malloc() or free() meet a not-inlined operator new/delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t size) { return ::operator new(size); }

[[gnu::noinline]] void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

[[gnu::noinline]] void* operator new[](std::size_t size,
                                        const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace sbroker::core {
namespace {

/// Answers at once, stamped with its own `now`: "value for <key>", or a
/// failure for a key ending in "-fail". With `hold` set it keeps the
/// completion instead, so a stale refresh stays in flight.
class PrimeBackend : public Backend {
 public:
  void invoke(const Call& call, Completion done) override {
    if (hold) {
      held.push_back(std::move(done));
      return;
    }
    bool ok = !call.payload.ends_with("-fail");
    done(now, ok, "value for " + call.payload);
  }

  double now = 0.0;
  bool hold = false;
  std::vector<Completion> held;
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
  cfg.cache_ttl = 10.0;
  cfg.cache_tuning.swr_grace = 1e9;     // an expired value stays servable
  cfg.cache_tuning.negative_ttl = 1e9;  // a failure stays cached
  // The flight recorder appends per-event records; the perf-critical
  // deployment shape keeps it off, and so does this regression bound.
  cfg.obs.trace = false;
  ServiceBroker broker("alloc", cfg);
  auto backend = std::make_shared<PrimeBackend>();
  broker.add_backend(backend);

  // Every context-free cache answer: kHits keys fresh, kNegatives cached
  // failures, and kStale expired values whose refresh is in flight (served
  // kStaleServe).
  constexpr int kHits = 8;
  constexpr int kNegatives = 4;
  constexpr int kStale = 4;
  constexpr int kKeys = kHits + kNegatives + kStale;
  constexpr int kRounds = 1000;
  std::vector<std::string> keys;
  for (int i = 0; i < kKeys; ++i) {
    keys.push_back(long_key(i) + (i >= kHits && i < kHits + kNegatives ? "-fail" : ""));
  }

  // Prime: one full-path submit per key fills the cache; the stale keys at
  // 0.0 (expired from 10.0), the rest at 50.0.
  for (int i = 0; i < kKeys; ++i) {
    bool stale = i >= kHits + kNegatives;
    backend->now = stale ? 0.0 : 50.0;
    http::BrokerRequest req;
    req.request_id = static_cast<uint64_t>(i + 1);
    req.qos_level = 3;
    req.payload = keys[i];
    http::Fidelity expected = i >= kHits && !stale ? http::Fidelity::kError
                                                   : http::Fidelity::kFull;
    bool replied = false;
    broker.submit(backend->now, req, [&](const http::BrokerReply& r) {
      replied = r.fidelity == expected;
    });
    ASSERT_TRUE(replied) << i;
  }
  backend->hold = true;

  // Pre-build the request objects so the measured loop exercises only the
  // broker, not the test's own string construction.
  std::vector<http::BrokerRequest> requests;
  for (int i = 0; i < kKeys; ++i) {
    http::BrokerRequest req;
    req.request_id = 1000u + static_cast<uint64_t>(i);
    req.qos_level = static_cast<uint8_t>(1 + i % 3);
    req.payload = keys[i];
    requests.push_back(std::move(req));
  }

  Arena scratch;
  size_t served = 0;
  size_t errors = 0;
  size_t payload_bytes = 0;
  auto on_reply = [&](const ReplyView& r) {
    served += 1;
    errors += r.fidelity == http::Fidelity::kError;
    payload_bytes += r.payload.size();
  };

  // Warm up: first touches may grow histograms buckets, arena blocks, hash
  // tables — one-time costs the steady state is measured without. Each stale
  // key's first probe claims its refresh, which the backend holds.
  for (int i = 0; i < kKeys; ++i) {
    scratch.reset();
    ASSERT_TRUE(broker.try_submit_fast(51.0, requests[i], scratch, on_reply));
  }
  ASSERT_EQ(backend->held.size(), static_cast<size_t>(kStale));

  served = 0;
  errors = 0;
  BrokerMetrics::FlightStats flight = broker.metrics().flight;
  uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kKeys; ++i) {
      scratch.reset();
      broker.try_submit_fast(52.0, requests[i], scratch, on_reply);
    }
  }
  uint64_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(served, static_cast<size_t>(kKeys) * kRounds);
  EXPECT_EQ(errors, static_cast<size_t>(kNegatives) * kRounds);
  EXPECT_EQ(broker.metrics().flight.negative_hits - flight.negative_hits,
            static_cast<uint64_t>(kNegatives) * kRounds);
  EXPECT_EQ(broker.metrics().flight.swr_hits - flight.swr_hits,
            static_cast<uint64_t>(kStale) * kRounds);
  EXPECT_EQ(broker.metrics().flight.refreshes, flight.refreshes);
  EXPECT_GT(payload_bytes, 0u);

  // The regression bound: every cache-served outcome must average well under
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
