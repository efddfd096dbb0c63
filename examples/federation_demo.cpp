// Federation demo + smoke: N broker *processes* as one cache/admission tier.
//
// The parent forks one child per federation member; each child runs a
// fed::FederatedDaemon (a ShardedBrokerDaemon plus ring, peer channels,
// gossip) on its own reserved port, all fronting one shared HTTP backend
// that lives in the parent so aggregate backend calls are counted in one
// authoritative place. Closed-loop client threads in the parent then drive
// a fixed number of requests over a round-robin key sequence, entering the
// tier at different nodes, and the parent scrapes each child's /statusz
// sbroker_federation_* families for forward/replication/gossip counters.
//
//   $ ./federation_demo peers=3 clients=6 requests=1920 keys=64 check=1
//
// key=value parameters (util::Config):
//   peers     federation members (processes)          (default 3)
//   clients   closed-loop client threads              (default 6)
//   requests  total requests across all clients       (default 1920)
//   keys      distinct keys; requests/keys is the repetition ("dup")
//             factor, so requests > keys exercises the tier cache
//                                                     (default 64)
//   shards    reactor shards per member               (default 1)
//   svc       backend service time per fetch, ms      (default 0)
//   deadline  per-request deadline, ms                (default 2000)
//   check     1 = two-phase smoke: run peers=1 then peers=N over the same
//             workload and gate (a) aggregate backend-call conservation in
//             both phases (calls == keys, plus one local fallback fetch
//             allowed per failed forward), (b) tier hit ratio at peers=N
//             >= the single-node hit ratio - 0.01, (c) cross-node forwards
//             actually happened; exit 1 on violation  (default 0)
//   kill      1 = robustness smoke: clients target only the first N-1
//             members while every member serves its ring share; halfway
//             through, the last member is SIGKILLed mid-traffic. Gates:
//             every request answers within its deadline budget (survivors
//             reroute the dead member's range), zero client failures
//                                                     (default 0)
//   out       JSON result file; "" = stdout only      (default "")
//
// Child hygiene (CI must never leak daemons): children die with the parent
// via PR_SET_PDEATHSIG, and the parent's Children guard SIGTERMs (then
// SIGKILLs) every child on all exit paths, including gate failures.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fed/federation.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/pipelined_backend.h"
#include "net/reactor.h"
#include "net/sharded_daemon.h"
#include "net/tcp.h"
#include "util/config.h"
#include "util/json.h"

using namespace sbroker;

namespace {

struct Knobs {
  size_t peers = 3;
  size_t clients = 6;
  uint64_t requests = 1920;
  uint64_t keys = 64;
  size_t shards = 1;
  double svc_ms = 0.0;
  uint32_t deadline_ms = 2000;
  bool check = false;
  bool kill = false;
  std::string out;
};

volatile std::sig_atomic_t g_term = 0;
void on_term(int) { g_term = 1; }

/// Binds an ephemeral port and releases it so a forked child can rebind it.
/// The reserve/rebind race is acceptable in the demo/CI container.
uint16_t reserve_port() {
  auto [fd, port] = net::listen_tcp(0);
  close(fd);
  return port;
}

/// Child body: one federation member. Never returns to the caller's main:
/// it leaves through std::exit, which skips the caller's stack (the
/// Children guard) but runs exit handlers, so a coverage build writes the
/// member's counts. The parent flushes stdio before fork, so the exit flush
/// duplicates no output.
[[noreturn]] void run_node(size_t node, const std::vector<uint16_t>& ports,
                           const std::vector<uint16_t>& admin_ports,
                           uint16_t backend_port, int ready_fd,
                           const Knobs& k) {
  prctl(PR_SET_PDEATHSIG, SIGKILL);  // no orphan daemons if the parent dies
  struct sigaction sa = {};
  sa.sa_handler = on_term;
  sigaction(SIGTERM, &sa, nullptr);

  net::ShardedBrokerDaemonConfig cfg;
  cfg.broker.rules = core::QosRules{3, 200.0};
  cfg.broker.enable_cache = true;
  cfg.broker.cache_ttl = 3600.0;  // no expiry inside a demo run
  cfg.shards = k.shards;
  cfg.enable_udp = false;
  cfg.tick_interval = 0.005;
  cfg.admin.enabled = true;
  cfg.admin.port = admin_ports[node];

  fed::FedNodeConfig fedc;
  fedc.node_id = static_cast<uint32_t>(node);
  fedc.peer_ports = ports;
  fedc.gossip_interval = 0.02;
  fedc.dial_backoff = 0.05;
  fedc.forward_timeout = 1.0;

  fed::FederatedDaemon daemon("fed" + std::to_string(node), cfg, fedc);
  daemon.add_backend([backend_port](net::Reactor& reactor, size_t) {
    return std::make_shared<net::PipelinedBackend>(reactor, backend_port);
  });
  daemon.start();
  // Readiness byte: the parent must not scrape /statusz (the pre-start admin
  // snapshot path reads broker state off-thread) or dial the frame port
  // until start() completed. One byte on the inherited pipe proves it.
  {
    char ready = 'r';
    ssize_t n = write(ready_fd, &ready, 1);
    (void)n;
    close(ready_fd);
  }
  while (g_term == 0) pause();
  daemon.stop();
  std::exit(0);
}

/// Owns the forked member processes; SIGKILLs whatever is still alive on
/// destruction so no exit path (gate failure, exception) leaks a daemon.
struct Children {
  std::vector<pid_t> pids;

  ~Children() {
    for (pid_t pid : pids) {
      if (pid <= 0) continue;
      ::kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
    }
  }

  /// Graceful stop: SIGTERM everyone, reap with a bounded wait, escalate
  /// to SIGKILL for stragglers.
  void shutdown() {
    for (pid_t pid : pids) {
      if (pid > 0) ::kill(pid, SIGTERM);
    }
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(3);
    for (pid_t& pid : pids) {
      while (pid > 0) {
        if (waitpid(pid, nullptr, WNOHANG) == pid) {
          pid = -1;
          break;
        }
        if (std::chrono::steady_clock::now() >= deadline) {
          ::kill(pid, SIGKILL);
          waitpid(pid, nullptr, 0);
          pid = -1;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  }
};

/// Blocks until every child has written its readiness byte (daemon fully
/// started: listen port bound, backends registered, shard threads running).
/// Children take a while to come up — especially under sanitizers — and
/// until start() returns in the child, neither a FrameClient dial (ctor
/// throws on refused connect) nor a /statusz scrape (the pre-start admin
/// snapshot reads broker state while add_backend still mutates it) is safe.
/// A child that dies early closes its pipe end; EOF before `peers` bytes
/// reports not-ready instead of hanging.
bool wait_for_ready(int ready_read_fd, size_t peers) {
  size_t got = 0;
  char buf[16];
  while (got < peers) {
    ssize_t n = read(ready_read_fd, buf, sizeof(buf));
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  return got >= peers;
}

std::optional<util::JsonValue> scrape_statusz(uint16_t admin_port) {
  http::Request req;
  req.method = "GET";
  req.target = "/statusz";
  auto resp = net::http_fetch(admin_port, req);
  if (!resp) return std::nullopt;
  return util::JsonValue::parse(resp->body);
}

/// Waits until every member's /statusz reports every peer fresh — i.e.
/// every directed gossip (and therefore forwarding) channel has carried a
/// frame. Without this barrier, requests issued while an early member's
/// dial to a not-yet-listening peer sits in backoff would correctly fall
/// back to local fetches and break the strict gates.
bool wait_for_mesh(const std::vector<uint16_t>& admin_ports, double timeout_s) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    size_t meshed = 0;
    for (uint16_t port : admin_ports) {
      auto doc = scrape_statusz(port);
      if (!doc || doc->find("sbroker_federation_nodes") == nullptr) continue;
      auto fresh = net::statusz_samples(*doc, "sbroker_federation_peer_fresh");
      if (std::all_of(fresh.begin(), fresh.end(), [](const auto* peer) {
            return (*peer)["value"].as_double() == 1.0;
          })) {
        ++meshed;
      }
    }
    if (meshed == admin_ports.size()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

struct PhaseResult {
  size_t peers = 0;
  bool killed_one = false;
  bool mesh_ok = true;
  uint64_t requests = 0;
  uint64_t answered = 0;   ///< replies received (any fidelity)
  uint64_t hits = 0;       ///< replies carrying kFlagCacheServed
  uint64_t failures = 0;   ///< transport failures / client timeouts
  uint64_t backend_calls = 0;
  uint64_t forwards = 0;
  uint64_t forward_fails = 0;
  uint64_t pushes = 0;
  uint64_t gossip_rounds = 0;
  double elapsed_s = 0.0;
  double max_call_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;

  double hit_ratio() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(hits) / static_cast<double>(requests);
  }
  double forward_ratio() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(forwards) /
                               static_cast<double>(requests);
  }
};

/// Runs one federation instance of `peers` members end to end: fork, mesh,
/// load, scrape, tear down. With `kill_one`, clients target only the first
/// peers-1 members and the last member is SIGKILLed halfway through.
PhaseResult run_phase(const Knobs& k, size_t peers, bool kill_one) {
  PhaseResult r;
  r.peers = peers;
  r.killed_one = kill_one;
  r.requests = k.requests;

  std::vector<uint16_t> ports, admin_ports;
  for (size_t i = 0; i < peers; ++i) {
    ports.push_back(reserve_port());
    admin_ports.push_back(reserve_port());
  }

  // The shared backend binds before the fork (children dial it lazily on
  // their first miss) but its reactor thread starts after, so the fork
  // happens with no live threads in the parent.
  net::Reactor backend_reactor;
  std::atomic<uint64_t> backend_calls{0};
  double svc_s = k.svc_ms / 1e3;
  net::HttpServer backend(
      backend_reactor, 0,
      [&](const http::Request& req, net::HttpServer::Responder respond) {
        backend_calls.fetch_add(1, std::memory_order_relaxed);
        http::Response resp = http::make_response(200, "content of " + req.target);
        if (svc_s > 0.0) {
          backend_reactor.add_timer(svc_s, [respond, resp] { respond(resp); });
        } else {
          respond(resp);
        }
      });
  uint16_t backend_port = backend.port();

  Children children;
  int ready_pipe[2];
  if (pipe(ready_pipe) != 0) {
    std::perror("pipe");
    std::exit(1);
  }
  std::fflush(stdout);
  std::fflush(stderr);
  for (size_t i = 0; i < peers; ++i) {
    pid_t pid = fork();
    if (pid == 0) {
      close(ready_pipe[0]);
      run_node(i, ports, admin_ports, backend_port, ready_pipe[1], k);
    }
    children.pids.push_back(pid);
  }
  // Parent drops its write end so a dead child means EOF, not a hang.
  close(ready_pipe[1]);
  std::thread backend_thread([&] { backend_reactor.run(); });

  r.mesh_ok = wait_for_ready(ready_pipe[0], peers) &&
              (peers <= 1 || wait_for_mesh(admin_ports, 10.0));
  close(ready_pipe[0]);
  if (!r.mesh_ok) {
    // Don't drive load at members that never came up; the mesh_ok gate
    // already fails the phase, and loader connects would just terminate.
    children.shutdown();
    backend_reactor.stop();
    backend_thread.join();
    return r;
  }

  // Closed-loop load: a global counter deals request j the key j % keys, so
  // every key is fetched exactly requests/keys times, spread across entry
  // nodes. In kill mode only survivors are entry nodes (the doomed member
  // still owns ~1/peers of the key space, so its death is felt).
  size_t entry_nodes = kill_one ? peers - 1 : peers;
  std::atomic<uint64_t> next{0};
  std::atomic<bool> kill_fired{false};
  uint64_t kill_at = k.requests / 2;
  std::vector<std::thread> loaders;
  std::vector<uint64_t> hits(k.clients, 0), answered(k.clients, 0),
      failures(k.clients, 0);
  std::vector<std::vector<double>> lat(k.clients);
  std::vector<double> max_call(k.clients, 0.0);
  auto t0 = std::chrono::steady_clock::now();
  for (size_t c = 0; c < k.clients; ++c) {
    loaders.emplace_back([&, c] {
      net::FrameClient client(ports[c % entry_nodes]);
      uint64_t id = (c << 32) | 1;
      for (;;) {
        uint64_t j = next.fetch_add(1, std::memory_order_relaxed);
        if (j >= k.requests) break;
        if (kill_one && j >= kill_at &&
            !kill_fired.exchange(true, std::memory_order_acq_rel)) {
          ::kill(children.pids.back(), SIGKILL);
        }
        std::string key = "/fed-" + std::to_string(j % k.keys);
        auto start = std::chrono::steady_clock::now();
        auto reply = client.call(id++, key, /*qos_level=*/1, k.deadline_ms);
        double took = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
        lat[c].push_back(took);
        max_call[c] = std::max(max_call[c], took);
        if (!reply.has_value()) {
          ++failures[c];
          continue;
        }
        ++answered[c];
        if (reply->flags & net::frame::kFlagCacheServed) ++hits[c];
      }
    });
  }
  for (auto& t : loaders) t.join();
  r.elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::vector<double> all_lat;
  for (size_t c = 0; c < k.clients; ++c) {
    r.hits += hits[c];
    r.answered += answered[c];
    r.failures += failures[c];
    r.max_call_s = std::max(r.max_call_s, max_call[c]);
    all_lat.insert(all_lat.end(), lat[c].begin(), lat[c].end());
  }
  std::sort(all_lat.begin(), all_lat.end());
  if (!all_lat.empty()) {
    r.p50_ms = all_lat[all_lat.size() / 2] * 1e3;
    r.p99_ms = all_lat[all_lat.size() * 99 / 100] * 1e3;
  }

  // Tier counters from each surviving member's admin plane (a killed
  // member's scrape fails and is skipped).
  for (uint16_t port : admin_ports) {
    auto doc = scrape_statusz(port);
    if (!doc) continue;
    auto counter = [&](const char* family) {
      auto s = net::statusz_samples(*doc, family);
      return s.empty() ? 0 : static_cast<uint64_t>((*s[0])["value"].as_int());
    };
    r.forwards += counter("sbroker_federation_forwards_sent_total");
    r.forward_fails += counter("sbroker_federation_forward_fails_total");
    r.pushes += counter("sbroker_federation_pushes_sent_total");
    r.gossip_rounds += counter("sbroker_federation_gossip_rounds_total");
  }

  children.shutdown();
  backend_reactor.stop();
  backend_thread.join();
  r.backend_calls = backend_calls.load();
  return r;
}

void print_phase(const PhaseResult& r) {
  std::printf(
      "peers=%zu%s  requests=%llu answered=%llu failures=%llu  "
      "hit_ratio=%.4f  backend_calls=%llu  forwards=%llu (fails=%llu)  "
      "pushes=%llu gossip_rounds=%llu  p50=%.2fms p99=%.2fms  %.0f req/s\n",
      r.peers, r.killed_one ? " (one killed mid-run)" : "",
      static_cast<unsigned long long>(r.requests),
      static_cast<unsigned long long>(r.answered),
      static_cast<unsigned long long>(r.failures), r.hit_ratio(),
      static_cast<unsigned long long>(r.backend_calls),
      static_cast<unsigned long long>(r.forwards),
      static_cast<unsigned long long>(r.forward_fails),
      static_cast<unsigned long long>(r.pushes),
      static_cast<unsigned long long>(r.gossip_rounds), r.p50_ms, r.p99_ms,
      r.elapsed_s > 0 ? r.requests / r.elapsed_s : 0.0);
}

void json_phase(util::JsonWriter& json, const PhaseResult& r) {
  json.begin_object()
      .field("peers", static_cast<uint64_t>(r.peers))
      .field("killed_one", r.killed_one)
      .field("mesh_ok", r.mesh_ok)
      .field("requests", r.requests)
      .field("answered", r.answered)
      .field("failures", r.failures)
      .field("hits", r.hits)
      .field("hit_ratio", r.hit_ratio())
      .field("backend_calls", r.backend_calls)
      .field("forwards", r.forwards)
      .field("forward_ratio", r.forward_ratio())
      .field("forward_fails", r.forward_fails)
      .field("pushes", r.pushes)
      .field("gossip_rounds", r.gossip_rounds)
      .field("elapsed_s", r.elapsed_s)
      .field("rps", r.elapsed_s > 0 ? r.requests / r.elapsed_s : 0.0)
      .field("p50_ms", r.p50_ms)
      .field("p99_ms", r.p99_ms)
      .field("max_call_s", r.max_call_s)
      .end_object();
}

/// Conservation: every backend call is either a key's first fetch or the
/// local fallback of a failed forward — nothing lost, nothing double-
/// fetched. Plus: every request answered, none failed, mesh formed.
bool phase_conserves(const PhaseResult& r, const Knobs& k) {
  bool ok = true;
  if (!r.mesh_ok) {
    std::fprintf(stderr, "FAIL peers=%zu: federation never meshed\n", r.peers);
    ok = false;
  }
  if (r.failures != 0 || r.answered != r.requests) {
    std::fprintf(stderr,
                 "FAIL peers=%zu: %llu failures, %llu/%llu answered\n",
                 r.peers, static_cast<unsigned long long>(r.failures),
                 static_cast<unsigned long long>(r.answered),
                 static_cast<unsigned long long>(r.requests));
    ok = false;
  }
  if (r.backend_calls < k.keys ||
      r.backend_calls > k.keys + r.forward_fails) {
    std::fprintf(stderr,
                 "FAIL peers=%zu: backend calls %llu outside [keys=%llu, "
                 "keys+forward_fails=%llu] — tier cache not conserving "
                 "fetches\n",
                 r.peers, static_cast<unsigned long long>(r.backend_calls),
                 static_cast<unsigned long long>(k.keys),
                 static_cast<unsigned long long>(k.keys + r.forward_fails));
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  util::Config cfg = util::Config::from_args(argc, argv);
  Knobs k;
  k.peers = static_cast<size_t>(cfg.get_int("peers", 3));
  k.clients = static_cast<size_t>(cfg.get_int("clients", 6));
  k.requests = static_cast<uint64_t>(cfg.get_int("requests", 1920));
  k.keys = static_cast<uint64_t>(cfg.get_int("keys", 64));
  k.shards = static_cast<size_t>(cfg.get_int("shards", 1));
  k.svc_ms = cfg.get_double("svc", 0.0);
  k.deadline_ms = static_cast<uint32_t>(cfg.get_int("deadline", 2000));
  k.check = cfg.get_int("check", 0) != 0;
  k.kill = cfg.get_int("kill", 0) != 0;
  k.out = cfg.get_string("out", "");

  if (k.peers < 1 || k.clients < 1 || k.requests < 1 || k.keys < 1) {
    std::fprintf(stderr, "error: need peers/clients/requests/keys >= 1\n");
    return 1;
  }
  if (k.kill && k.peers < 2) {
    std::fprintf(stderr, "error: kill=1 needs peers >= 2\n");
    return 1;
  }
  if (k.requests <= k.keys) {
    std::fprintf(stderr,
                 "error: requests must exceed keys (repetition is what the "
                 "tier cache serves)\n");
    return 1;
  }

  std::printf(
      "federation_demo: peers=%zu clients=%zu requests=%llu keys=%llu "
      "shards=%zu svc=%.1fms deadline=%ums check=%d kill=%d\n",
      k.peers, k.clients, static_cast<unsigned long long>(k.requests),
      static_cast<unsigned long long>(k.keys), k.shards, k.svc_ms,
      k.deadline_ms, k.check ? 1 : 0, k.kill ? 1 : 0);

  std::vector<PhaseResult> runs;
  bool ok = true;

  if (k.kill) {
    PhaseResult r = run_phase(k, k.peers, /*kill_one=*/true);
    print_phase(r);
    runs.push_back(r);
    // A dead member must cost latency at most: every request still answers
    // inside its deadline budget (forward timeout -> local fallback, then
    // the ring reroutes to survivors), and none fails outright.
    double bound = k.deadline_ms / 1e3 + 1.0;
    if (r.failures != 0 || r.answered != r.requests) {
      std::fprintf(stderr,
                   "FAIL kill: %llu failures, %llu/%llu answered\n",
                   static_cast<unsigned long long>(r.failures),
                   static_cast<unsigned long long>(r.answered),
                   static_cast<unsigned long long>(r.requests));
      ok = false;
    }
    if (r.max_call_s >= bound) {
      std::fprintf(stderr,
                   "FAIL kill: a request took %.3fs, past its %.1fs budget\n",
                   r.max_call_s, bound);
      ok = false;
    }
    if (!r.mesh_ok) {
      std::fprintf(stderr, "FAIL kill: federation never meshed\n");
      ok = false;
    }
    if (r.backend_calls < k.keys) {
      std::fprintf(stderr,
                   "FAIL kill: only %llu backend calls for %llu keys\n",
                   static_cast<unsigned long long>(r.backend_calls),
                   static_cast<unsigned long long>(k.keys));
      ok = false;
    }
  } else if (k.check) {
    // Phase 1: the single-node baseline over the identical workload.
    PhaseResult single = run_phase(k, 1, false);
    print_phase(single);
    runs.push_back(single);
    // Phase 2: the federated tier.
    PhaseResult tier = run_phase(k, k.peers, false);
    print_phase(tier);
    runs.push_back(tier);

    ok = phase_conserves(single, k) && ok;
    ok = phase_conserves(tier, k) && ok;
    if (k.peers > 1 && tier.forwards == 0) {
      std::fprintf(stderr, "FAIL: no cross-node forwards at peers=%zu\n",
                   k.peers);
      ok = false;
    }
    // The federation headline: partitioning + forwarding must recover the
    // single cache's hit ratio — without it, each of N independent nodes
    // would pay its own cold misses (hit ratio down by ~(N-1)*keys/requests).
    if (tier.hit_ratio() < single.hit_ratio() - 0.01) {
      std::fprintf(stderr,
                   "FAIL: tier hit ratio %.4f < single-node %.4f - 0.01\n",
                   tier.hit_ratio(), single.hit_ratio());
      ok = false;
    }
  } else {
    PhaseResult r = run_phase(k, k.peers, false);
    print_phase(r);
    runs.push_back(r);
  }

  util::JsonWriter json;
  json.begin_object()
      .field("bench", "federation_demo")
      .field("peers", static_cast<uint64_t>(k.peers))
      .field("clients", static_cast<uint64_t>(k.clients))
      .field("requests", k.requests)
      .field("keys", k.keys)
      .field("shards", static_cast<uint64_t>(k.shards))
      .field("svc_ms", k.svc_ms)
      .field("deadline_ms", static_cast<uint64_t>(k.deadline_ms))
      .field("kill", k.kill)
      .key("runs")
      .begin_array();
  for (const PhaseResult& r : runs) json_phase(json, r);
  json.end_array().end_object();
  if (!k.out.empty()) {
    if (std::ofstream(k.out) << json.str() << '\n' << std::flush) {
      std::printf("wrote %s\n", k.out.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", k.out.c_str());
      return 1;
    }
  } else {
    std::printf("%s\n", json.str().c_str());
  }

  if ((k.check || k.kill) && !ok) {
    std::fprintf(stderr, "federation check FAILED\n");
    return 1;
  }
  if (k.check || k.kill) std::printf("federation check passed\n");
  return 0;
}
