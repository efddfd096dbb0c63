// Real-socket broker daemon — the distributed model on live TCP, sharded.
//
// Starts (in one process, on localhost): a mini HTTP backend server and a
// ShardedBrokerDaemon — two reactor threads, each running the identical
// single-threaded core::ServiceBroker the simulations use, behind one port
// whose acceptor hands connections to them in turn. The shards share one striped result cache and one global
// outstanding-request counter, so a result fetched through one shard serves
// a repeat arriving at the other, and the QoS thresholds apply to the
// service's total load. Shows full/cached/busy fidelities over real sockets.
//
//   $ ./real_proxy
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "net/http_client.h"
#include "net/http_server.h"
#include "net/pipelined_backend.h"
#include "net/sharded_daemon.h"
#include "util/json.h"

using namespace sbroker;

int main() {
  // backend: a slow-ish page plus fast ones, on its own reactor thread.
  net::Reactor backend_reactor;
  net::HttpServer backend(backend_reactor, 0,
                          [&](const http::Request& req, net::HttpServer::Responder respond) {
                            respond(http::make_response(200, "page " + req.target));
                          });
  backend.route("/slow", [&](const http::Request&, net::HttpServer::Responder respond) {
    backend_reactor.add_timer(0.2, [respond] {
      respond(http::make_response(200, "slow content"));
    });
  });
  std::thread backend_thread([&] { backend_reactor.run(); });

  net::ShardedBrokerDaemonConfig cfg;
  cfg.shards = 2;
  cfg.broker.rules = core::QosRules{3, 6.0};  // small threshold: easy to overload
  cfg.broker.enable_cache = true;
  cfg.broker.cache_ttl = 5.0;
  net::ShardedBrokerDaemon daemon("web-broker", cfg);
  // One pipelined channel per shard, bound to that shard's reactor — backends
  // are shard-local; only the cache and the load count are shared. The
  // channel mirrors the broker's ConnectionPool bounds, so each shard keeps a
  // handful of multiplexed sockets instead of one per in-flight request.
  core::PoolConfig pool = cfg.broker.pool;
  daemon.add_backend([&, pool](net::Reactor& reactor, size_t) {
    return std::make_shared<net::PipelinedBackend>(
        reactor, backend.port(), net::PipelinedBackend::Config::from_pool(pool));
  });
  daemon.start();

  std::printf("backend on 127.0.0.1:%u, broker daemon on 127.0.0.1:%u "
              "(%zu shards)\n",
              backend.port(), daemon.port(), daemon.shards());
  std::printf("admin plane on http://127.0.0.1:%u "
              "(/healthz /metrics /statusz /tracez)\n\n",
              daemon.admin_port());

  auto call = [&](uint64_t id, int qos, const std::string& target) {
    net::FrameClient client(daemon.port());
    auto reply = client.call(id, target, static_cast<uint8_t>(qos));
    if (reply) {
      std::printf("  %-18s qos=%d -> %-6s %.40s\n", target.c_str(), qos,
                  http::fidelity_name(reply->fidelity), reply->payload.c_str());
    } else {
      std::printf("  %-18s qos=%d -> (no reply)\n", target.c_str(), qos);
    }
  };

  std::printf("-- first fetch forwards; the repeat (a fresh connection, so "
              "possibly\n-- another shard) is served from the shared cache\n");
  call(1, 2, "/front-page");
  call(2, 2, "/front-page");

  std::printf("\n-- saturate with slow fetches, then watch class 1 get shed:\n"
              "-- the threshold counts outstanding requests across BOTH shards\n");
  std::vector<std::thread> slow_clients;
  for (int i = 0; i < 4; ++i) {
    slow_clients.emplace_back([&, i] {
      net::FrameClient client(daemon.port());
      client.call(static_cast<uint64_t>(100 + i), "/slow", 3);
    });
  }
  // Give the slow calls a moment to occupy the global outstanding window.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  call(200, 1, "/low-priority");   // bound 6*1/3 = 2 -> busy
  call(201, 3, "/high-priority");  // bound 6       -> forwarded
  for (auto& t : slow_clients) t.join();

  // The broker's own view of the run, scraped the way an operator would.
  http::Request scrape;
  scrape.target = "/statusz";
  scrape.headers.set("Host", "localhost");
  auto statusz = net::http_fetch(daemon.admin_port(), scrape);
  util::JsonValue doc = util::JsonValue::parse(statusz ? statusz->body : "")
                            .value_or(util::JsonValue());
  std::printf("\n/statusz broker-side stage latencies, all classes:\n");
  for (const util::JsonValue* stage :
       net::statusz_samples(doc, "sbroker_stage_latency_seconds")) {
    std::printf("  %-12s count=%-3.0f p50=%.3fms p99=%.3fms\n",
                (*stage)["labels"]["stage"].as_string().c_str(),
                (*stage)["count"].as_double(),
                (*stage)["p50"].as_double() * 1e3,
                (*stage)["p99"].as_double() * 1e3);
  }

  core::BrokerMetrics m = daemon.aggregate_metrics();
  daemon.stop();
  backend_reactor.stop();
  backend_thread.join();

  std::printf("\nbroker totals (all shards): issued=%llu forwarded=%llu "
              "dropped=%llu cached=%llu\n",
              static_cast<unsigned long long>(m.total().issued),
              static_cast<unsigned long long>(m.total().forwarded),
              static_cast<unsigned long long>(m.total().dropped),
              static_cast<unsigned long long>(m.total().cache_hits));
  std::printf("shared cache: %zu entries, hit ratio %.2f\n",
              daemon.shared_cache().size(), daemon.shared_cache().hit_ratio());
  std::printf("backend channel: %llu backend calls multiplexed over %llu "
              "connections\n",
              static_cast<unsigned long long>(m.transport.calls),
              static_cast<unsigned long long>(m.transport.connections_opened));
  return 0;
}
