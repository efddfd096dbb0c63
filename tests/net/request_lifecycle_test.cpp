// Request lifecycle over real sockets: deadline sheds against a mute
// backend, cancel-token teardown of stalled exchanges, retry failover to a
// healthy replica, and the new lifecycle counters surfacing in sharded
// daemon metric snapshots.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/broker_daemon.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/pipelined_backend.h"
#include "net/sharded_daemon.h"

namespace sbroker::net {
namespace {

/// Spins until `pred` holds or ~2s passed. Predicates must only read atomics.
template <typename Pred>
bool wait_for(Pred pred) {
  for (int spin = 0; spin < 1000; ++spin) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// Backend server whose every route stalls: it reads requests and never
/// responds (the half-open failure mode — the connection stays up).
class MuteServer {
 public:
  explicit MuteServer(Reactor& reactor)
      : server_(reactor, 0, [this](const http::Request&, HttpServer::Responder respond) {
          ++swallowed_;
          parked_.push_back(std::move(respond));  // never called
        }) {}

  uint16_t port() const { return server_.port(); }
  uint64_t swallowed() const { return swallowed_.load(); }

 private:
  std::atomic<uint64_t> swallowed_{0};
  std::vector<HttpServer::Responder> parked_;
  HttpServer server_;
};

class RequestLifecycleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    backend_thread_ = std::thread([this] { backend_reactor_.run(); });
  }

  void TearDown() override {
    backend_reactor_.stop();
    backend_thread_.join();
  }

  /// Runs `fn` on the backend reactor thread and blocks until it finished.
  template <typename Fn>
  void on_backend_reactor(Fn fn) {
    std::promise<void> done;
    backend_reactor_.post([&]() {
      fn();
      done.set_value();
    });
    done.get_future().get();
  }

  Reactor backend_reactor_;
  std::unique_ptr<MuteServer> mute_;
  std::unique_ptr<HttpServer> echo_;
  std::thread backend_thread_;
};

TEST_F(RequestLifecycleTest, DeadlineShedsAgainstStalledBackendAcrossShards) {
  on_backend_reactor([&] { mute_ = std::make_unique<MuteServer>(backend_reactor_); });

  ShardedBrokerDaemonConfig cfg;
  cfg.broker.rules = core::QosRules{3, 100.0};
  cfg.broker.enable_cache = false;
  cfg.shards = 2;
  cfg.enable_udp = false;
  cfg.tick_interval = 0.5;  // deliberately coarse: expiry must not wait for it
  auto daemon = std::make_unique<ShardedBrokerDaemon>("lifecycle", cfg);
  uint16_t port = mute_->port();
  daemon->add_backend([port](Reactor& reactor, size_t) {
    return std::make_shared<PipelinedBackend>(reactor, port);
  });
  daemon->start();

  constexpr int kClients = 2;
  constexpr int kPerClient = 4;
  std::atomic<int> shed{0};
  std::atomic<int> answered{0};
  std::vector<std::thread> clients;
  auto begin = std::chrono::steady_clock::now();
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      FrameClient client(daemon->port());
      for (int i = 0; i < kPerClient; ++i) {
        uint64_t id = static_cast<uint64_t>(c) * 1000 + static_cast<uint64_t>(i);
        auto reply = client.call(id, "/stall" + std::to_string(id), 3,
                                 /*deadline_ms=*/100);
        if (!reply) continue;
        ++answered;
        if (reply->fidelity == http::Fidelity::kBusy &&
            reply->payload == std::string(core::kDeadlineExceeded)) {
          ++shed;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  auto elapsed = std::chrono::steady_clock::now() - begin;

  // Every request was answered at degraded fidelity, and nobody waited for
  // the 5s client timeout (the wall-clock bound only guards against hangs;
  // the sharp at-the-deadline check is on broker-side clocks below).
  EXPECT_EQ(answered.load(), kClients * kPerClient);
  EXPECT_EQ(shed.load(), kClients * kPerClient);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
            4000);

  // The stalled work was cancelled and the shared load drained to zero.
  ASSERT_TRUE(wait_for([&] { return daemon->shared_load().outstanding() == 0; }));

  // The lifecycle counters surface through the sharded metric snapshot.
  core::BrokerMetrics metrics = daemon->aggregate_metrics();
  core::BrokerMetrics::ClassCounters total = metrics.total();
  EXPECT_EQ(total.issued, static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_EQ(total.completed, total.issued);
  EXPECT_EQ(total.deadline_misses, total.issued);
  EXPECT_EQ(total.dropped, total.issued);
  EXPECT_EQ(metrics.lifecycle.cancellations, total.issued);
  // Broker-side shed latency: every expiry fired near its 100ms deadline.
  // Had any waited for the coarse 500ms housekeeping tick, the slowest shed
  // would measure up to the full tick interval (reactor clock, so this is
  // insulated from client-thread scheduling noise).
  double slowest_shed = 0.0;
  for (const ShardStatus& status : daemon->shard_status()) {
    slowest_shed = std::max(
        slowest_shed, status.obs.merged_histogram(obs::Stage::kTotal).max_seconds());
  }
  EXPECT_LT(slowest_shed, 0.45);
  daemon->stop();

  // Each cancelled exchange was torn down at the transport too.
  uint64_t transport_cancels = 0;
  for (size_t s = 0; s < daemon->shards(); ++s) {
    transport_cancels += daemon->shard(s).broker().channel_stats().cancels;
  }
  EXPECT_EQ(transport_cancels, total.issued);
}

TEST_F(RequestLifecycleTest, RetryFailsOverToHealthyReplicaOverPipelinedChannel) {
  on_backend_reactor([&] {
    mute_ = std::make_unique<MuteServer>(backend_reactor_);
    echo_ = std::make_unique<HttpServer>(
        backend_reactor_, 0,
        [](const http::Request& req, HttpServer::Responder respond) {
          respond(http::make_response(200, "content of " + req.target));
        });
  });

  ShardedBrokerDaemonConfig cfg;
  cfg.broker.rules = core::QosRules{3, 100.0};
  cfg.broker.enable_cache = false;
  cfg.broker.lifecycle.max_attempts = 2;
  cfg.broker.health = core::HealthConfig{1, 60.0};  // eject on first failure
  cfg.shards = 1;
  cfg.enable_udp = false;
  cfg.tick_interval = 0.01;
  auto daemon = std::make_unique<ShardedBrokerDaemon>("failover", cfg);
  // The stalled replica is added first: least-outstanding ties pick it for
  // the first exchange, whose transport timeout then drives the failover.
  uint16_t mute_port = mute_->port();
  uint16_t echo_port = echo_->port();
  PipelinedBackend::Config channel;
  channel.response_timeout = 0.08;  // transport stall bound << client patience
  daemon->add_backend([mute_port, channel](Reactor& reactor, size_t) {
    return std::make_shared<PipelinedBackend>(reactor, mute_port, channel);
  });
  daemon->add_backend([echo_port, channel](Reactor& reactor, size_t) {
    return std::make_shared<PipelinedBackend>(reactor, echo_port, channel);
  });
  daemon->start();

  constexpr int kRequests = 6;
  int full = 0;
  {
    FrameClient client(daemon->port());
    for (int i = 0; i < kRequests; ++i) {
      auto reply =
          client.call(static_cast<uint64_t>(i + 1), "/r" + std::to_string(i), 3);
      ASSERT_TRUE(reply.has_value()) << "request " << i;
      if (reply->fidelity == http::Fidelity::kFull &&
          reply->payload == "content of /r" + std::to_string(i)) {
        ++full;
      }
    }
  }
  // Every request ends at full fidelity: the stalled replica's failures were
  // absorbed by the retry budget, never surfaced to a client.
  EXPECT_EQ(full, kRequests);

  ASSERT_TRUE(wait_for([&] { return daemon->shared_load().outstanding() == 0; }));
  core::BrokerMetrics metrics = daemon->aggregate_metrics();
  core::BrokerMetrics::ClassCounters total = metrics.total();
  EXPECT_EQ(total.issued, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(total.completed, total.issued);
  EXPECT_EQ(total.errors, 0u);
  EXPECT_GE(total.retries, 1u);            // at least the first exchange moved
  EXPECT_GE(metrics.lifecycle.ejections, 1u);  // the mute replica was ejected
  daemon->stop();

  // The transport recorded the half-stall as a timeout failure.
  core::ChannelStats channels = daemon->shard(0).broker().channel_stats();
  EXPECT_GE(channels.timeouts, 1u);
  EXPECT_TRUE(daemon->shard(0).broker().balancer().ejected(0));
}

TEST_F(RequestLifecycleTest, PipelinedBackendFailsHalfStalledExchangeOnDeadline) {
  on_backend_reactor([&] { mute_ = std::make_unique<MuteServer>(backend_reactor_); });
  auto backend = std::make_shared<PipelinedBackend>(backend_reactor_, mute_->port());

  std::atomic<bool> done_called{false};
  std::atomic<bool> ok_result{true};
  std::string failure;
  std::mutex mu;
  on_backend_reactor([&] {
    core::Backend::Call call;
    call.payload = "/stalled";
    call.timeout = 0.08;  // broker-derived remaining deadline
    backend->invoke(call, nullptr,
                    [&](double, bool ok, const std::string& payload) {
                      {
                        std::lock_guard<std::mutex> lock(mu);
                        failure = payload;
                      }
                      ok_result = ok;
                      done_called = true;
                    });
  });
  ASSERT_TRUE(wait_for([&] { return done_called.load(); }));
  EXPECT_FALSE(ok_result.load());
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(failure, "backend response timeout");
  }
  on_backend_reactor([&] {
    core::ChannelStats stats = backend->channel_stats();
    EXPECT_EQ(stats.timeouts, 1u);
    EXPECT_EQ(backend->timeouts(), 1u);
  });
  EXPECT_EQ(mute_->swallowed(), 1u);
}

TEST_F(RequestLifecycleTest, DeadlineShedArrivesBeforeTheTick) {
  on_backend_reactor([&] {
    mute_ = std::make_unique<MuteServer>(backend_reactor_);
    echo_ = std::make_unique<HttpServer>(
        backend_reactor_, 0,
        [](const http::Request& req, HttpServer::Responder respond) {
          respond(http::make_response(200, "content of " + req.target));
        });
  });

  // Two daemons on their own reactor: one fronting the mute backend (every
  // deadline request is shed) and one fronting the echo backend (served).
  // Built before the reactor thread starts, like ShardedBrokerDaemon does.
  Reactor daemon_reactor;
  core::BrokerConfig dcfg;
  dcfg.rules = core::QosRules{3, 100.0};
  dcfg.enable_cache = false;
  constexpr double kTick = 0.5;  // coarse: the shed must arrive at the deadline
  auto stalled = std::make_unique<BrokerDaemon>(daemon_reactor, "stalled", dcfg, kTick);
  stalled->add_backend(std::make_shared<PipelinedBackend>(daemon_reactor, mute_->port()));
  auto healthy = std::make_unique<BrokerDaemon>(daemon_reactor, "healthy", dcfg, kTick);
  healthy->add_backend(std::make_shared<PipelinedBackend>(daemon_reactor, echo_->port()));
  auto stalled_listener = std::make_unique<TcpListener>(
      daemon_reactor, 0, [&](int fd) { stalled->adopt_client(fd); });
  auto healthy_listener = std::make_unique<TcpListener>(
      daemon_reactor, 0, [&](int fd) { healthy->adopt_client(fd); });
  std::thread daemon_thread([&] { daemon_reactor.run(); });

  {  // the clients close before the daemons are torn down
    FrameClient stalled_client(stalled_listener->port());
    auto sent = std::chrono::steady_clock::now();
    auto shed = stalled_client.call(1, "/page", 1, /*deadline_ms=*/100);
    auto waited = std::chrono::steady_clock::now() - sent;
    ASSERT_TRUE(shed.has_value());
    EXPECT_EQ(shed->fidelity, http::Fidelity::kBusy);
    EXPECT_EQ(shed->payload, core::kDeadlineExceeded);
    EXPECT_LT(waited, std::chrono::milliseconds(400));  // well before the tick

    FrameClient healthy_client(healthy_listener->port());
    auto served = healthy_client.call(2, "/page");
    ASSERT_TRUE(served.has_value());
    EXPECT_EQ(served->fidelity, http::Fidelity::kFull);
    EXPECT_EQ(served->payload, "content of /page");
  }

  std::promise<void> torn_down;
  daemon_reactor.post([&]() {
    stalled_listener.reset();
    healthy_listener.reset();
    stalled.reset();
    healthy.reset();
    torn_down.set_value();
  });
  torn_down.get_future().get();
  daemon_reactor.stop();
  daemon_thread.join();
}

}  // namespace
}  // namespace sbroker::net
