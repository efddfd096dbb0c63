// Anti-stampede behaviour over real sockets: single-flight coalescing
// through a live BrokerDaemon, the cross-shard park/notify/poke path of the
// sharded daemon, and the prefetch wakeup-spin regression on the reactor
// substrate (the sim-substrate twin lives in core/flight_test.cpp).
#include "net/broker_daemon.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/http_client.h"
#include "net/http_server.h"
#include "net/pipelined_backend.h"
#include "net/sharded_daemon.h"

namespace sbroker::net {
namespace {

/// Polls `pred` from the test thread until it holds or ~2s elapse.
bool eventually(const std::function<bool()>& pred) {
  for (int i = 0; i < 1000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// Runs `fn` on the reactor thread and returns its result; the only safe way
/// to read broker state while the reactor is live.
template <typename Fn>
auto on_reactor(Reactor& reactor, Fn fn) -> decltype(fn()) {
  std::promise<decltype(fn())> result;
  reactor.post([&]() { result.set_value(fn()); });
  return result.get_future().get();
}

TEST(DaemonStampede, ConcurrentIdenticalRequestsHitBackendOnce) {
  // The backend parks every "/slow" responder until the test releases them,
  // so identical requests genuinely overlap in flight.
  Reactor reactor;
  std::atomic<int> backend_hits{0};
  std::vector<HttpServer::Responder> parked;  // reactor-thread state
  HttpServer backend_server(
      reactor, 0, [&](const http::Request& req, HttpServer::Responder respond) {
        ++backend_hits;
        if (req.target.find("/slow") != std::string::npos) {
          parked.push_back(std::move(respond));
          return;
        }
        respond(http::make_response(200, "content of " + req.target));
      });

  core::BrokerConfig cfg;
  cfg.rules = core::QosRules{3, 20.0};
  cfg.enable_cache = true;
  cfg.cache_ttl = 30.0;
  BrokerDaemon daemon(reactor, "stampede", cfg, 0.02);
  daemon.add_backend(std::make_shared<PipelinedBackend>(reactor, backend_server.port()));
  TcpListener listener(reactor, 0, [&](int fd) { daemon.adopt_client(fd); });
  std::thread reactor_thread([&] { reactor.run(); });

  // Four clients storm the same cold key while the one fetch is held open.
  constexpr int kClients = 4;
  std::vector<std::optional<FrameReply>> replies(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      FrameClient client(listener.port());
      replies[static_cast<size_t>(c)] =
          client.call(static_cast<uint64_t>(c) + 1, "/slow", 3);
    });
  }

  // All four must be aboard the single flight before it resolves. The
  // backend shares the daemon's reactor, so the leader's fetch may still be
  // unread when the waiters have coalesced: wait for the hit too.
  ASSERT_TRUE(eventually([&]() {
    return on_reactor(reactor, [&]() {
      return daemon.broker().metrics().flight.coalesced_waiters;
    }) == static_cast<uint64_t>(kClients - 1);
  }));
  ASSERT_TRUE(eventually([&]() { return backend_hits.load() == 1; }));

  reactor.post([&]() {
    ASSERT_EQ(parked.size(), 1u);
    parked[0](http::make_response(200, "slow-value"));
    parked.clear();
  });
  for (auto& t : clients) t.join();

  int full = 0, cached = 0;
  for (const auto& reply : replies) {
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->payload, "slow-value");
    if (reply->fidelity == http::Fidelity::kFull) ++full;
    if (reply->fidelity == http::Fidelity::kCached) ++cached;
  }
  EXPECT_EQ(full, 1);
  EXPECT_EQ(cached, kClients - 1);
  EXPECT_EQ(backend_hits.load(), 1);

  reactor.stop();
  reactor_thread.join();
}

TEST(ShardedStampede, MissesOnDifferentShardsShareOneFetch) {
  // Two shards behind the round-robin acceptor (deterministic placement:
  // first connection -> shard 0, second -> shard 1). Shard 1's identical
  // miss must park on shard 0's in-flight fetch through the shared
  // FlightTable and be answered by the resolve -> notify -> poke chain.
  Reactor backend_reactor;
  std::atomic<int> backend_hits{0};
  std::vector<HttpServer::Responder> parked;
  HttpServer backend_server(
      backend_reactor, 0,
      [&](const http::Request& req, HttpServer::Responder respond) {
        ++backend_hits;
        if (req.target.find("/slow") != std::string::npos) {
          parked.push_back(std::move(respond));
          return;
        }
        respond(http::make_response(200, "content of " + req.target));
      });
  std::thread backend_thread([&] { backend_reactor.run(); });

  ShardedBrokerDaemonConfig cfg;
  cfg.shards = 2;
  cfg.broker.rules = core::QosRules{3, 20.0};
  cfg.broker.enable_cache = true;
  cfg.broker.cache_ttl = 30.0;
  cfg.admin.enabled = false;
  ShardedBrokerDaemon daemon("sharded-stampede", cfg);
  daemon.add_backend([&](Reactor& shard_reactor, size_t) {
    return std::make_shared<PipelinedBackend>(shard_reactor, backend_server.port());
  });
  daemon.start();

  std::optional<FrameReply> reply_a, reply_b;
  std::thread client_a([&]() {
    FrameClient client(daemon.port());
    reply_a = client.call(1, "/slow", 3);
  });
  // Shard 0 must own the flight before the second client connects. The
  // claim lands before the fetch reaches the backend thread, so wait for
  // the hit too instead of asserting it instantaneously.
  ASSERT_TRUE(eventually([&]() { return daemon.shared_flights().in_flight() == 1; }));
  ASSERT_TRUE(eventually([&]() { return backend_hits.load() == 1; }));

  std::thread client_b([&]() {
    FrameClient client(daemon.port());
    reply_b = client.call(2, "/slow", 3);
  });
  // Shard 1 misses, loses the claim, and parks — without a second fetch.
  ASSERT_TRUE(eventually([&]() { return daemon.shared_flights().parked() >= 1; }));
  EXPECT_EQ(backend_hits.load(), 1);

  backend_reactor.post([&]() {
    ASSERT_EQ(parked.size(), 1u);
    parked[0](http::make_response(200, "slow-value"));
    parked.clear();
  });
  client_a.join();
  client_b.join();

  ASSERT_TRUE(reply_a.has_value());
  EXPECT_EQ(reply_a->fidelity, http::Fidelity::kFull);
  EXPECT_EQ(reply_a->payload, "slow-value");
  ASSERT_TRUE(reply_b.has_value());
  EXPECT_EQ(reply_b->fidelity, http::Fidelity::kCached);
  EXPECT_EQ(reply_b->payload, "slow-value");
  EXPECT_EQ(backend_hits.load(), 1);
  EXPECT_EQ(daemon.shared_flights().in_flight(), 0u);

  daemon.stop();
  backend_reactor.stop();
  backend_thread.join();
}

TEST(DaemonStampede, OverduePrefetchDoesNotSpinTheTickTimerWhileBusy) {
  // Regression for the wakeup spin on the reactor substrate: with a request
  // in flight and an overdue prefetch entry, next_deadline() used to report
  // the entry as due-now even though tick() refuses to issue prefetches
  // under load, so every tick re-armed the timer for `now` and the daemon
  // ticked as fast as the reactor could loop until the request finished.
  Reactor reactor;
  std::vector<HttpServer::Responder> black_hole;  // "/stall" never answers
  HttpServer backend_server(
      reactor, 0, [&](const http::Request& req, HttpServer::Responder respond) {
        if (req.target.find("/stall") != std::string::npos) {
          black_hole.push_back(std::move(respond));
          return;
        }
        respond(http::make_response(200, "content of " + req.target));
      });

  core::BrokerConfig cfg;
  // Class-1 bound 1, the prefetch gate: any outstanding request is busy.
  cfg.rules = core::QosRules{3, 3.0};
  cfg.enable_cache = true;
  // Tick interval 5 s: only deadline/prefetch schedules arm the timer.
  BrokerDaemon daemon(reactor, "spin", cfg, 5.0);
  daemon.add_backend(std::make_shared<PipelinedBackend>(reactor, backend_server.port()));
  TcpListener listener(reactor, 0, [&](int fd) { daemon.adopt_client(fd); });
  std::thread reactor_thread([&] { reactor.run(); });

  // Occupy the broker with a stalled request that sheds on its own deadline.
  std::optional<FrameReply> stalled;
  std::thread client([&]() {
    FrameClient client_conn(listener.port());
    stalled = client_conn.call(1, "/stall", 3, /*deadline_ms=*/700);
  });
  ASSERT_TRUE(eventually([&]() {
    return on_reactor(reactor, [&]() { return daemon.broker().outstanding(); }) == 1;
  }));

  // Register an overdue prefetch entry behind the busy broker and force a
  // re-arm, exactly what a completion-driven poke does.
  on_reactor(reactor, [&]() {
    daemon.broker().prefetcher().add("/hot", 10.0);
    daemon.poke();
    return 0;
  });
  uint64_t ticks_before =
      on_reactor(reactor, [&]() { return daemon.broker().ticks(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  uint64_t ticks_during =
      on_reactor(reactor, [&]() { return daemon.broker().ticks(); });
  // Pre-fix this delta is in the tens of thousands (one tick per reactor
  // loop for 300ms); post-fix the timer waits for the request deadline.
  EXPECT_LE(ticks_during - ticks_before, 5u);

  // The schedule is suppressed, not lost: once the stalled request sheds,
  // the prefetch goes out and lands in the cache.
  client.join();
  ASSERT_TRUE(stalled.has_value());
  EXPECT_EQ(stalled->fidelity, http::Fidelity::kBusy);
  ASSERT_TRUE(eventually([&]() {
    return on_reactor(reactor, [&]() {
      return daemon.broker().prefetcher().issued() >= 1;
    });
  }));
  ASSERT_TRUE(eventually([&]() {
    return on_reactor(reactor, [&]() {
      return daemon.broker().cache().get_stale("/hot").has_value();
    });
  }));

  reactor.stop();
  reactor_thread.join();
}

}  // namespace
}  // namespace sbroker::net
