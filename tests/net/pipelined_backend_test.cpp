// PipelinedBackend over real sockets: FIFO response matching across
// interleaved completions, write coalescing, the clustered MGET exchange,
// backpressure at the channel cap, and exactly-once recovery from
// mid-pipeline connection loss.
#include "net/pipelined_backend.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/cluster.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/sharded_daemon.h"

namespace sbroker::net {
namespace {

std::string http_ok(const std::string& body) {
  return "HTTP/1.1 200 OK\r\nContent-Length: " + std::to_string(body.size()) +
         "\r\n\r\n" + body;
}

/// Spins until `pred` holds or ~2s passed. Predicates must only read atomics.
template <typename Pred>
bool wait_for(Pred pred) {
  for (int spin = 0; spin < 1000; ++spin) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

// All sockets (test server and channel under test) live as fixture members so
// nothing is torn down until TearDown has stopped the reactor thread.
class PipelinedBackendTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (thread_.joinable()) {
      reactor_.stop();
      thread_.join();
    }
  }

  void run_reactor() {
    thread_ = std::thread([this] { reactor_.run(); });
  }

  /// Runs `fn` on the reactor thread and blocks until it finished.
  template <typename Fn>
  void on_reactor(Fn fn) {
    std::promise<void> done;
    reactor_.post([&]() {
      fn();
      done.set_value();
    });
    done.get_future().get();
  }

  Reactor reactor_;
  std::unique_ptr<HttpServer> server_;
  std::unique_ptr<TcpListener> listener_;
  std::vector<std::shared_ptr<TcpConn>> conns_;    // raw-server connections
  std::vector<std::string> inboxes_;               // one per raw connection
  std::function<void(size_t)> serve_;              // raw-server request loop
  std::shared_ptr<PipelinedBackend> backend_;
  std::thread thread_;
};

TEST_F(PipelinedBackendTest, FifoMatchingAcrossInterleavedConnections) {
  server_ = std::make_unique<HttpServer>(
      reactor_, 0, [](const http::Request& req, HttpServer::Responder respond) {
        respond(http::make_response(200, "content of " + req.target));
      });
  PipelinedBackend::Config config;
  config.max_connections = 2;
  config.pipeline_depth = 8;
  backend_ =
      std::make_shared<PipelinedBackend>(reactor_, server_->port(), config);
  run_reactor();

  constexpr int kCalls = 16;
  std::atomic<int> completions{0};
  std::vector<std::pair<bool, std::string>> results(kCalls);
  on_reactor([&]() {
    for (int i = 0; i < kCalls; ++i) {
      core::Backend::Call call;
      call.payload = "/r" + std::to_string(i);
      backend_->invoke(call, [&, i](double, bool ok, const std::string& payload) {
        results[i] = {ok, payload};
        ++completions;  // publishes results[i] to the waiting test thread
      });
    }
  });
  ASSERT_TRUE(wait_for([&] { return completions.load() == kCalls; }));

  // FIFO matching: every reply carries the body of exactly its own request,
  // even though two connections completed interleaved with each other.
  for (int i = 0; i < kCalls; ++i) {
    EXPECT_TRUE(results[i].first) << i;
    EXPECT_EQ(results[i].second, "content of /r" + std::to_string(i)) << i;
  }
  on_reactor([&]() {
    core::ChannelStats stats = backend_->channel_stats();
    EXPECT_LE(stats.connections_opened, 2u);  // never one socket per request
    EXPECT_EQ(stats.requests_written, static_cast<uint64_t>(kCalls));
    // 16 invokes dispatched in one burst coalesce into one flush per
    // connection, not one write per request.
    EXPECT_LE(stats.flushes, 2u);
    EXPECT_GE(stats.peak_in_flight, 2u);
  });
}

// Clustered exchange: a multi-record payload leaves as one MGET request, the
// server's MGET fan-out answers each target, and the reply splits back into
// one body per record, in record order. A reply that is not MGET-framed
// fails the exchange rather than handing the whole body to every record.
TEST_F(PipelinedBackendTest, MultiRecordPayloadIsOneMgetExchange) {
  server_ = std::make_unique<HttpServer>(
      reactor_, 0, [](const http::Request& req, HttpServer::Responder respond) {
        respond(http::make_response(200, "content of " + req.target));
      });
  backend_ = std::make_shared<PipelinedBackend>(reactor_, server_->port());
  run_reactor();

  std::atomic<int> completions{0};
  std::pair<bool, std::string> result;
  auto exchange = [&](std::string payload) {
    on_reactor([&]() {
      core::Backend::Call call;
      call.payload = std::move(payload);
      backend_->invoke(call, [&](double, bool ok, const std::string& body) {
        result = {ok, body};
        ++completions;  // publishes result to the waiting test thread
      });
    });
  };

  exchange("/a\x1e/b\x1e/c");
  ASSERT_TRUE(wait_for([&] { return completions.load() == 1; }));
  EXPECT_TRUE(result.first);
  EXPECT_EQ(core::ClusterEngine::split_records(result.second),
            (std::vector<std::string>{"content of /a", "content of /b",
                                      "content of /c"}));
  on_reactor([&]() {
    EXPECT_EQ(backend_->channel_stats().requests_written, 1u);
    EXPECT_EQ(server_->requests_served(), 1u);
  });

  // A server that answers every request with one plain body.
  on_reactor([&]() {
    listener_ = std::make_unique<TcpListener>(reactor_, 0, [this](int fd) {
      size_t index = conns_.size();
      conns_.push_back(TcpConn::adopt(reactor_, fd));
      inboxes_.emplace_back();
      conns_[index]->start(
          [this, index](std::string_view bytes) {
            std::string& inbox = inboxes_[index];
            inbox.append(bytes);
            size_t terminator;
            while ((terminator = inbox.find("\r\n\r\n")) != std::string::npos) {
              inbox.erase(0, terminator + 4);
              conns_[index]->send(http_ok("pong"));
            }
          },
          []() {});
    });
    backend_ = std::make_shared<PipelinedBackend>(reactor_, listener_->port());
  });
  exchange("/a\x1e/b");
  ASSERT_TRUE(wait_for([&] { return completions.load() == 2; }));
  EXPECT_FALSE(result.first);
  EXPECT_EQ(result.second, "bad MGET framing from backend");
}

TEST_F(PipelinedBackendTest, MidPipelineConnectionLossRequeuesExactlyOnce) {
  // Raw flaky server: connection #1 answers the first pipelined request and
  // then closes (FIN after the response bytes); later connections answer
  // every request.
  serve_ = [this](size_t index) {
    std::string& inbox = inboxes_[index];
    size_t terminator;
    while ((terminator = inbox.find("\r\n\r\n")) != std::string::npos) {
      inbox.erase(0, terminator + 4);
      conns_[index]->send(http_ok("pong"));
      if (index == 0) {
        conns_[index]->shutdown();  // first connection dies after one response
        return;
      }
    }
  };
  listener_ = std::make_unique<TcpListener>(reactor_, 0, [this](int fd) {
    size_t index = conns_.size();
    conns_.push_back(TcpConn::adopt(reactor_, fd));
    inboxes_.emplace_back();
    conns_[index]->start(
        [this, index](std::string_view bytes) {
          inboxes_[index].append(bytes);
          serve_(index);
        },
        []() {});
  });

  PipelinedBackend::Config config;
  config.max_connections = 1;  // everything rides the flaky connection first
  config.pipeline_depth = 8;
  config.max_attempts = 2;
  backend_ =
      std::make_shared<PipelinedBackend>(reactor_, listener_->port(), config);
  run_reactor();

  constexpr int kCalls = 5;
  std::atomic<int> completions{0};
  std::atomic<int> ok_count{0};
  std::vector<int> per_call(kCalls, 0);
  on_reactor([&]() {
    for (int i = 0; i < kCalls; ++i) {
      core::Backend::Call call;
      call.payload = "/flaky-" + std::to_string(i);
      backend_->invoke(call, [&, i](double, bool ok, const std::string&) {
        ++per_call[i];
        if (ok) ++ok_count;
        ++completions;
      });
    }
  });
  ASSERT_TRUE(wait_for([&] { return completions.load() == kCalls; }));

  // The head exchange completed on the dying connection; the other four were
  // re-issued on a fresh connection and all succeeded — exactly once each.
  EXPECT_EQ(ok_count.load(), kCalls);
  for (int i = 0; i < kCalls; ++i) {
    EXPECT_EQ(per_call[i], 1) << "call " << i << " completed twice";
  }
  on_reactor([&]() {
    core::ChannelStats stats = backend_->channel_stats();
    EXPECT_EQ(stats.retries, static_cast<uint64_t>(kCalls - 1));
    EXPECT_EQ(stats.connections_opened, 2u);
  });
}

TEST_F(PipelinedBackendTest, SaturatedChannelRejectsWithBackpressure) {
  // A server that accepts and reads but never answers keeps the pipeline full.
  listener_ = std::make_unique<TcpListener>(reactor_, 0, [this](int fd) {
    conns_.push_back(TcpConn::adopt(reactor_, fd));
    conns_.back()->start([](std::string_view) {}, []() {});
  });

  PipelinedBackend::Config config;
  config.max_connections = 1;
  config.pipeline_depth = 2;  // cap: 2 in-flight total
  backend_ =
      std::make_shared<PipelinedBackend>(reactor_, listener_->port(), config);
  run_reactor();

  std::atomic<int> rejected{0};
  std::string reject_reason;
  on_reactor([&]() {
    for (int i = 0; i < 3; ++i) {
      core::Backend::Call call;
      call.payload = "/stuck-" + std::to_string(i);
      backend_->invoke(call, [&](double, bool ok, const std::string& payload) {
        // Only the third call completes (fast-fail); the first two stay
        // pending against the mute server for the whole test.
        if (!ok) {
          reject_reason = payload;
          ++rejected;
        }
      });
    }
    EXPECT_EQ(backend_->in_flight(), 2u);
  });
  ASSERT_TRUE(wait_for([&] { return rejected.load() == 1; }));
  on_reactor([&]() {
    EXPECT_EQ(backend_->rejections(), 1u);
    EXPECT_EQ(backend_->open_connections(), 1u);
    EXPECT_EQ(reject_reason, "backend channel saturated");
  });
}

TEST_F(PipelinedBackendTest, ConnectFailureFailsCallsAsynchronously) {
  backend_ = std::make_shared<PipelinedBackend>(reactor_, 1);  // closed port
  run_reactor();
  std::atomic<int> failed{0};
  on_reactor([&]() {
    core::Backend::Call call;
    call.payload = "/unreachable";
    backend_->invoke(call, [&](double, bool ok, const std::string&) {
      if (!ok) ++failed;
    });
  });
  EXPECT_TRUE(wait_for([&] { return failed.load() == 1; }));
}

// ---------------------------------------------------------------------------
// End-to-end through the sharded daemon.

TEST(PipelinedShardedDaemon, ConservationAndConnectionCapUnderConcurrency) {
  Reactor backend_reactor;
  HttpServer backend_server(
      backend_reactor, 0,
      [](const http::Request& req, HttpServer::Responder respond) {
        respond(http::make_response(200, "content of " + req.target));
      });
  std::thread backend_thread([&] { backend_reactor.run(); });

  ShardedBrokerDaemonConfig cfg;
  cfg.broker.rules = core::QosRules{3, 200.0};
  cfg.broker.enable_cache = false;  // every request must ride the channel
  cfg.shards = 2;
  cfg.enable_udp = false;
  cfg.tick_interval = 0.005;
  ShardedBrokerDaemon daemon("pipelined-sharded", cfg);
  uint16_t port = backend_server.port();
  core::PoolConfig pool = cfg.broker.pool;
  daemon.add_backend([port, pool](Reactor& reactor, size_t) {
    return std::make_shared<PipelinedBackend>(
        reactor, port, PipelinedBackend::Config::from_pool(pool));
  });
  daemon.start();

  constexpr int kClients = 8;
  constexpr int kPerClient = 25;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      FrameClient client(daemon.port());
      for (int i = 0; i < kPerClient; ++i) {
        uint64_t id = static_cast<uint64_t>(c) * 1000 + static_cast<uint64_t>(i);
        auto reply = client.call(id, "/t" + std::to_string(id),
                                 static_cast<uint8_t>(1 + i % 3));
        if (reply && reply->request_id == id &&
            reply->payload == "content of /t" + std::to_string(id)) {
          ++ok;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients * kPerClient);

  core::BrokerMetrics metrics = daemon.aggregate_metrics();
  core::BrokerMetrics::ClassCounters total = metrics.total();
  EXPECT_EQ(total.issued, static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_EQ(total.completed, total.issued);
  EXPECT_EQ(total.forwarded + total.dropped + total.errors, total.issued);
  EXPECT_EQ(total.errors, 0u);

  // The whole run rode at most max_connections sockets per shard — not one
  // per concurrent client — and they were actually multiplexed.
  EXPECT_EQ(metrics.transport.calls, total.forwarded);
  EXPECT_LE(metrics.transport.connections_opened,
            static_cast<uint64_t>(cfg.shards * pool.max_connections));
  EXPECT_GE(metrics.transport.connections_opened, 1u);
  EXPECT_EQ(metrics.transport.rejections, 0u);
  EXPECT_EQ(metrics.transport.requests_written, total.forwarded);

  daemon.stop();
  backend_reactor.stop();
  backend_thread.join();
}

}  // namespace
}  // namespace sbroker::net
