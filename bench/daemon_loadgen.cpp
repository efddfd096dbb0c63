// Closed-loop multi-connection load generator for the sharded broker daemon.
//
// Drives a ShardedBrokerDaemon over real TCP sockets: M client threads, each
// with one persistent client connection, issue requests back-to-back
// for a fixed wall-clock window. The sweep is the cross product of shard
// counts and backend-channel modes. Both modes use net::PipelinedBackend:
// pipeline=0 is the stop-and-wait control (pipeline depth 1, one connection
// per possible in-flight request), pipeline=1 the multiplexed channel (few
// persistent connections, many in-flight exchanges each, coalesced writes).
// Comparing connections_opened and req/s between the modes is the
// wire-level check of the paper's "a single connection ... can be
// multiplexed to serve multiple applications" claim.
//
//   $ daemon_loadgen shards=1,2,4 pipeline=0,1 clients=64 seconds=2 cache=0
//
// key=value parameters (util::Config):
//   shards    comma list of shard counts to sweep     (default "1,2,4")
//   pipeline  comma list of channel modes, 0 and/or 1 (default "0,1")
//   clients   concurrent closed-loop connections      (default 8)
//   seconds   measurement window per run              (default 2.0)
//   keys      distinct request targets (cache keyspace, default 512)
//   threshold admission threshold (QoS rules)         (default 64)
//   cache     1 = result cache on; 0 off, so every request rides the
//             broker->backend channel under test       (default 1)
//   timeout   per-request deadline in ms; 0 = none    (default 0)
//   stallpct  percent of the keyspace routed to a never-replying backend
//             route (half-open stall injection). Requires timeout>0, or
//             stalled requests would block their closed-loop client forever
//             (default 0)
//   attempts  broker attempt budget (lifecycle.max_attempts; >1 enables
//             retry-with-backoff against the channel)   (default 1)
//   dup       comma list of fractions (0..1) of requests routed to the
//             single hottest key, swept like shards/pipeline, modelling
//             flash-crowd repetition. With a short ttl the hot key's misses
//             collide and the single-flight layer collapses them:
//             backend_calls drops well below requests and
//             coalesced_waiters climbs                  (default "0")
//   ttl       result-cache TTL in seconds               (default 3600)
//   grace     stale-while-revalidate grace window, seconds past expiry
//             during which stale values are served while one background
//             refresh runs (0 = off)                    (default 0)
//   jitter    fractional per-key TTL jitter, e.g. 0.1 = +-10% (default 0)
//   negttl    negative-cache TTL for backend errors, seconds (default 0)
//   coalesce  1 = single-flight miss coalescing on      (default 1)
//   check     1 = verify conservation (issued == completed, issued ==
//             forwarded + dropped + cached + errors), zero client failures,
//             one request frame per reply (frames_in == requests) with live
//             flush counters, and that every full or cached reply carries
//             its own target's body ("body of <target>"; a mis-paired
//             pipelined reply fails) after every run; exit 1 on violation — this is the ctest
//             smoke mode that keeps the bench binary honest
//   obs       1 = broker flight recorder on; 0 = the compiled-in-but-idle
//             baseline the overhead experiment compares against (latency
//             histograms always record)                 (default 1)
//   scrape    1 = hit the admin plane: /healthz and /metrics mid-window
//             (they must serve while the broker is loaded), /statusz after
//             the window; broker-side per-class p50/p95/p99 land in the
//             JSON next to the client-side numbers. With check=1 the
//             scrape must succeed and the broker-side total p50 must not
//             exceed the client-side p50 (the broker measures a strict
//             subset of what the client times)         (default 1)
//   burst     frames each client pipelines per send; with check=1 and
//             burst>1 the replies must leave in fewer flushes than there
//             are replies (write coalescing)             (default 1)
//   policy    comma list of balancer policies swept per combination, from
//             random, round-robin (rr), least-outstanding (least), weighted,
//             ewma, p2c (see core/balance.h)   (default "least-outstanding",
//             the broker's own default, so existing smokes are unchanged)
//   replicas  backend replicas in the fake pool, each its own HTTP server
//             with its own port                        (default 1)
//   svc       per-request service time in ms at every replica; each replica
//             is a serial (capacity-1) server, so queueing delay is real and
//             responses stay in arrival order (HTTP/1.1 pipelining needs
//             in-order responses). 0 = reply immediately (default 0)
//   svcjitter fractional service-time jitter, e.g. 0.1 = ±10% (default 0.1;
//             only matters with svc>0)
//   skew      comma list of slow-replica multipliers swept per combination:
//             the LAST replica serves svc*skew ms per request, modelling a
//             degraded box in an otherwise uniform pool. skew>1 requires
//             replicas>=2 and svc>0                    (default "1")
//   degrade   seconds into each run before the slow replica's skew kicks in
//             (0 = slow from the start)                (default 0)
//             With check=1, every run must satisfy pick conservation
//             (Σ per-replica balancer picks == backend calls), and at
//             skew>=4 the ewma/p2c runs must route a smaller share of picks
//             to the slow replica than the round-robin run of the same
//             combination.
//   overload  comma list of overload-control specs swept per combination,
//             from: static (the paper's fixed admission threshold), aimd
//             (feedback-driven threshold, see core/overload.h), aimd+lifo /
//             static+lifo (per-class queues flip to LIFO while the
//             controller declares overload)
//             (default "static", the historic behavior)
//   window    broker dispatch window (max batches in flight to backends);
//             0 = unbounded. Flash-crowd runs need window>0 so admitted
//             work queues in the QoS scheduler, where the LIFO discipline
//             and deadline shedding can act on it        (default 0)
//   oeval     overload-controller feedback interval, seconds, applied to
//             every spec that wants feedback            (default 0.05)
//   crowd     flash-crowd multiplier: at t=ramp the client count steps
//             from `clients` to clients*crowd via fresh connections (the
//             paper's flash-crowd arrival shape). Splits the run into a
//             pre phase [0,ramp) and a crowd phase [ramp,end), each with
//             its own goodput/drop/p99 in the JSON. A reply is "good" if
//             it carried useful fidelity (not busy, not error) AND met the
//             client deadline. crowd>1 requires timeout>0 and burst=1.
//             With check=1 and a static run present, every non-static
//             run's crowd-phase goodput must be >= the static run's for
//             the same combination                       (default 1)
//   ramp      seconds into each run at which the crowd joins
//             (default seconds/3; only meaningful with crowd>1)
//   backoff   ms a client sleeps after a busy/error reply before retrying
//             (the closed-loop user reading the "system is busy" page).
//             Without it a drop is instant and the rejected crowd re-offers
//             at wire speed, so on a small host the drop storm itself
//             starves the backend — real browsers do not do that. The sleep
//             is part of the logical request: latency is stamped once at the
//             first attempt and the eventual useful reply reports first
//             attempt + backoff + retry, not just the last leg (default 0)
//   arrivals  comma list of arrival processes swept per combination, from:
//               closed   the historic closed-loop clients (think-time zero,
//                        next request the moment the previous completes)
//               poisson / bursty / diurnal
//                        open-loop schedules (wl::ArrivalSchedule): requests
//                        are *due* at scheduled times whether or not the
//                        system keeps up. Latency is measured from each
//                        request's intended send time, so a stalled broker
//                        shows up in the tail instead of silently shedding
//                        offered load — the coordinated-omission fix. The
//                        biased from-actual-send view is reported alongside.
//             Open modes require rate>0, crowd=1, burst=1, backoff=0
//             (default "closed")
//   rate      total offered load for open-loop modes, requests/second,
//             split evenly across the client threads (each runs its own
//             deterministic schedule seeded from seed+thread; superposed
//             Poisson streams are again Poisson)       (default 0)
//   seed      run seed for the open-loop schedules and the link shim's
//             jitter streams (util::derive_seed fans it out) (default 1)
//   duty      bursty: on-fraction of each period       (default 0.3)
//   period    bursty/diurnal cycle length, seconds     (default 1.0)
//   floor     diurnal: trough rate as fraction of peak (default 0.2)
//   link      degrade the daemon->backend channel through a userspace
//             netem-style TCP proxy (net/netem_proxy.h), one per replica:
//               none   direct connection (the historic wiring)
//               wan    ~40 ms ± 20 ms jitter
//               cell   ~50 ms ± 30 ms + looping cellular bandwidth trace
//                      (sags to dial-up-class throughput mid-cycle)
//               custom:<lat_ms>:<jitter_ms>:<kbps>
//             (default none)
//   out       JSON result file; "" = stdout only      (default BENCH_daemon.json)
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/balance.h"
#include "core/overload.h"
#include "net/http_server.h"
#include "net/http_client.h"
#include "net/netem_proxy.h"
#include "net/pipelined_backend.h"
#include "net/reactor.h"
#include "net/sharded_daemon.h"
#include "obs/histogram.h"
#include "sim/link.h"
#include "srv/service_profile.h"
#include "wl/arrival.h"
#include "util/config.h"
#include "util/json.h"
#include "util/rng.h"

using namespace sbroker;

namespace {

struct BrokerPercentiles {
  uint64_t count = 0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;  // seconds
};

/// Per-phase accounting for flash-crowd runs (crowd>1): pre = [0, ramp),
/// crowd = [ramp, end of window). "Useful" counts replies with a usable
/// fidelity (full/cached/degraded — not busy, not error); "good" counts
/// useful replies that also met the client deadline, the goodput basis.
struct PhaseStats {
  double duration = 0.0;
  uint64_t replies = 0;
  uint64_t useful = 0;
  uint64_t good = 0;
  obs::LatencyHistogram useful_latency;  // seconds, useful replies only
  double goodput = 0.0;  // good replies per second of phase time
};

struct RunResult {
  size_t shards = 0;
  bool pipelined = false;
  net::WireStats wire;  // main-port frame count + flush coalescing
  double dup = 0.0;  // hot-key fraction this run was driven with
  std::string policy;  // balancer policy this run was driven with
  double skew = 1.0;   // slow-replica service-time multiplier
  size_t replicas = 1;
  // Per-replica picker state from the post-run shard snapshots: picks summed
  // across shards, EWMA the max across shards (each shard has its own view).
  std::vector<uint64_t> replica_picks;
  std::vector<double> replica_ewma_ms;
  uint64_t picks_total = 0;
  double slow_share = 0.0;  // last replica's share of picks (replicas > 1)
  uint64_t requests = 0;   // replies received by clients
  uint64_t failures = 0;   // timeouts / io errors
  uint64_t mispaired = 0;  // full/cached replies carrying another target's body
  double seconds = 0.0;
  double rps = 0.0;
  obs::LatencyHistogram latency;  // seconds
  double hit_ratio = 0.0;
  core::BrokerMetrics metrics;  // metrics.transport carries the channel stats
  // Admin-plane scrape results (scrape=1): broker-side latency percentiles
  // for the "total" stage, overall and per QoS class.
  bool admin_live = false;  // /healthz + /metrics answered mid-window
  bool scraped = false;     // /statusz fetched and parsed post-window
  BrokerPercentiles broker_total;
  std::vector<BrokerPercentiles> broker_class;
  // Overload-control view of the run (the overload=/window=/crowd=/ramp=
  // dimensions): the spec driven, the post-run mean effective admission
  // threshold across shards, and per-phase goodput when crowd>1.
  std::string overload;
  size_t window = 0;
  size_t crowd = 1;
  double ramp = 0.0;
  double admission_threshold = 0.0;
  bool overload_mode = false;  // any shard still in declared overload
  bool phased = false;         // crowd>1: pre/crowd_phase are meaningful
  PhaseStats pre;
  PhaseStats crowd_phase;
  // Open-loop view of the run (the arrivals=/rate= dimensions): schedule
  // accounting and the biased from-actual-send latency kept next to the
  // coordinated-omission-corrected r.latency.
  std::string arrivals = "closed";
  bool open_loop = false;
  double offered_rate = 0.0;   // requests/second the schedule offered
  uint64_t scheduled = 0;      // arrivals the schedules produced in-window
  uint64_t sent = 0;           // arrivals actually put on the wire
  uint64_t queued_behind = 0;  // arrivals sent >1ms late (sender was busy)
  double max_lag = 0.0;        // worst send lag behind schedule, seconds
  obs::LatencyHistogram service_latency;  // from actual send (the biased view)
  // Link-degradation shim (the link= dimension).
  std::string link = "none";
  double proxy_max_delay = 0.0;  // worst single-chunk delay applied, seconds
  uint64_t proxy_bytes = 0;
};

/// Anti-stampede knobs swept through to the broker config (see the dup=,
/// ttl=, grace=, jitter=, negttl=, coalesce= parameters above).
struct CacheKnobs {
  double dup = 0.0;
  double ttl = 3600.0;  // no expiry inside the window by default
  double grace = 0.0;
  double jitter = 0.0;
  double negttl = 0.0;
  bool coalesce = true;
};

/// Replica-selection knobs swept through to the broker + fake backend pool
/// (the policy=, replicas=, svc=, svcjitter=, skew=, degrade= parameters).
struct ReplicaKnobs {
  core::BalancePolicy policy = core::BalancePolicy::kLeastOutstanding;
  size_t replicas = 1;
  double svc_ms = 0.0;
  double svc_jitter = 0.1;
  double skew = 1.0;
  double degrade = 0.0;
};

/// Overload-control knobs swept through to the broker config (the
/// overload=, window=, crowd=, ramp= parameters). One per overload= token;
/// window/crowd/ramp are shared across the sweep.
struct OverloadKnobs {
  std::string spec = "static";
  core::OverloadConfig config;
  size_t window = 0;
  size_t crowd = 1;        // client multiplier during the crowd phase
  double ramp = 0.0;       // seconds into the run at which the crowd joins
  double backoff_ms = 0.0; // client sleep after a busy/error reply
};

/// Arrival-process knobs swept through to the client threads (the arrivals=,
/// rate=, seed=, duty=, period=, floor= parameters). kind empty = the
/// historic closed loop.
struct ArrivalKnobs {
  std::string name = "closed";
  std::optional<wl::ArrivalKind> kind;
  double rate = 0.0;  // total offered requests/second, split across clients
  uint64_t seed = 1;
  double duty = 0.3;
  double period = 1.0;
  double floor_frac = 0.2;
};

/// Backend-link degradation (the link= parameter): when set, every replica
/// sits behind its own NetemProxy applying this profile.
struct LinkKnobs {
  std::string name = "none";
  std::optional<sim::Link::Params> profile;
};

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Heterogeneous fake-backend pool: one HTTP server per replica, all on one
/// reactor thread. Each replica is a serial (capacity-1) server: requests
/// queue behind a busy-until cursor, so a slow replica shows real queueing
/// delay. Replies wait in a per-replica FIFO drained by one timer, so they
/// leave in arrival order however long the thread stalls between arming and
/// firing — per-reply timers armed from an earlier clock read could swap
/// neighbours. The LAST replica carries the skew multiplier. Targets under
/// /stall- are swallowed: the response is parked forever, modelling a
/// backend that accepts work and goes mute.
class BackendPool {
 public:
  explicit BackendPool(const ReplicaKnobs& rk) : queues_(rk.replicas) {
    double start = reactor_.now();
    for (size_t i = 0; i < rk.replicas; ++i) {
      srv::ServiceProfile profile;
      profile.base = rk.svc_ms * 1e-3;
      profile.jitter = rk.svc_jitter;
      if (rk.replicas > 1 && i + 1 == rk.replicas) {
        profile.multiplier = rk.skew;
        profile.degrade_after = rk.degrade;
      }
      auto rng = std::make_shared<util::Rng>(util::derive_seed(0xb0c0, i));
      servers_.push_back(std::make_unique<net::HttpServer>(
          reactor_, 0,
          [this, i, profile, rng, start](const http::Request& req,
                                         net::HttpServer::Responder respond) {
            if (req.target.rfind("/stall-", 0) == 0) {
              parked_.push_back(std::move(respond));
              return;
            }
            http::Response resp =
                http::make_response(200, "body of " + req.target);
            double now = reactor_.now();
            double svc = profile.sample(0.0, now - start, *rng);
            Queue& q = queues_[i];
            if (svc <= 0.0 && q.due.empty()) {
              respond(std::move(resp));
              return;
            }
            q.busy_until = std::max(now, q.busy_until) + std::max(0.0, svc);
            q.due.emplace_back(q.busy_until,
                               [respond = std::move(respond),
                                resp = std::move(resp)]() { respond(resp); });
            if (!q.timer_armed) arm(i);
          }));
    }
    thread_ = std::thread([this] { reactor_.run(); });
  }
  ~BackendPool() {
    reactor_.stop();
    thread_.join();
  }
  uint16_t port(size_t replica) const { return servers_[replica]->port(); }

 private:
  struct Queue {
    double busy_until = 0.0;
    std::deque<std::pair<double, std::function<void()>>> due;
    bool timer_armed = false;
  };

  void arm(size_t replica) {
    Queue& q = queues_[replica];
    q.timer_armed = true;
    reactor_.add_timer(q.due.front().first - reactor_.now(),
                       [this, replica]() { drain(replica); });
  }

  void drain(size_t replica) {
    Queue& q = queues_[replica];
    q.timer_armed = false;
    double now = reactor_.now();
    while (!q.due.empty() && q.due.front().first <= now) {
      std::function<void()> send = std::move(q.due.front().second);
      q.due.pop_front();
      send();
    }
    if (!q.due.empty()) arm(replica);
  }

  net::Reactor reactor_;
  std::vector<Queue> queues_;  // reactor thread only
  std::vector<std::unique_ptr<net::HttpServer>> servers_;
  std::vector<net::HttpServer::Responder> parked_;  // reactor thread only
  std::thread thread_;
};

/// Parses the /statusz JSON into broker-side latency percentiles.
bool parse_statusz(const std::string& body, RunResult& r) {
  std::optional<util::JsonValue> doc = util::JsonValue::parse(body);
  if (!doc || !doc->is_object()) return false;
  auto percentiles = [](const util::JsonValue& h) {
    return BrokerPercentiles{static_cast<uint64_t>(h["count"].as_int()),
                             h["p50"].as_double(), h["p95"].as_double(),
                             h["p99"].as_double()};
  };
  auto total = net::statusz_samples(*doc, "sbroker_stage_latency_seconds",
                                    {{"stage", "total"}});
  if (total.empty()) return false;
  r.broker_total = percentiles(*total[0]);
  for (const util::JsonValue* cls : net::statusz_samples(
           *doc, "sbroker_latency_seconds", {{"stage", "total"}})) {
    r.broker_class.push_back(percentiles(*cls));
  }
  return true;
}

RunResult run_one(size_t shards, bool pipelined, size_t clients, double seconds,
                  uint64_t keys, double threshold, bool cache,
                  uint32_t timeout_ms, uint64_t stallpct, int attempts,
                  bool obs_on, bool scrape, const CacheKnobs& knobs,
                  size_t burst,
                  const ReplicaKnobs& rk, const OverloadKnobs& ok,
                  const ArrivalKnobs& ak, const LinkKnobs& lk) {
  BackendPool backends(rk);
  // link=: interpose a netem-style proxy per replica; the daemon's backend
  // channels then ride the degraded path while the loadgen-facing side stays
  // clean. Jitter streams decorrelate per replica via derive_seed.
  std::vector<std::unique_ptr<net::NetemProxy>> proxies;
  if (lk.profile) {
    for (size_t i = 0; i < rk.replicas; ++i) {
      proxies.push_back(std::make_unique<net::NetemProxy>(
          backends.port(i), *lk.profile,
          util::derive_seed(ak.seed, 0x10000 + i)));
    }
  }
  net::ShardedBrokerDaemonConfig cfg;
  cfg.broker.rng_seed = util::derive_seed(ak.seed, 0x5eed);
  cfg.broker.rules = core::QosRules{3, threshold};
  cfg.broker.overload = ok.config;
  cfg.broker.dispatch_window = ok.window;
  cfg.broker.enable_cache = cache;
  cfg.broker.cache_capacity = 4096;
  cfg.broker.cache_ttl = knobs.ttl;
  cfg.broker.single_flight = knobs.coalesce;
  cfg.broker.cache_tuning.swr_grace = knobs.grace;
  cfg.broker.cache_tuning.ttl_jitter = knobs.jitter;
  cfg.broker.cache_tuning.negative_ttl = knobs.negttl;
  cfg.broker.lifecycle.max_attempts = attempts;
  cfg.broker.obs.trace = obs_on;
  cfg.broker.balance = rk.policy;
  cfg.shards = shards;
  cfg.enable_udp = false;
  size_t total_clients = clients * std::max<size_t>(1, ok.crowd);
  if (!pipelined) {
    // Stop-and-wait control: one exchange per connection, and a connection
    // for every request that can be in flight at once, so the pool never
    // sheds a batch the multiplexed mode would have carried.
    cfg.broker.pool.multiplex_capacity = 1;
    cfg.broker.pool.max_connections = total_clients * burst;
  }
  net::ShardedBrokerDaemon daemon("loadgen-broker", cfg);
  // Same caps as the broker's ConnectionPool, so the wire enforces the bounds
  // the core accounting already promised.
  auto channel = net::PipelinedBackend::Config::from_pool(cfg.broker.pool);
  for (size_t i = 0; i < rk.replicas; ++i) {
    uint16_t backend_port =
        proxies.empty() ? backends.port(i) : proxies[i]->port();
    daemon.add_backend([backend_port, channel](net::Reactor& reactor, size_t) {
      return std::make_shared<net::PipelinedBackend>(reactor, backend_port,
                                                     channel);
    });
  }
  daemon.start();

  std::atomic<bool> stop_flag{false};
  std::vector<uint64_t> counts(total_clients, 0);
  std::vector<uint64_t> failures(total_clients, 0);
  std::vector<uint64_t> mispaired(total_clients, 0);
  std::vector<obs::LatencyHistogram> latencies(total_clients);
  // Open-loop accounting (arrivals != closed): per-thread schedule counters
  // and the biased from-actual-send latencies kept next to the corrected
  // ones above.
  bool open_loop = ak.kind.has_value();
  std::vector<uint64_t> scheduled_counts(total_clients, 0);
  std::vector<uint64_t> sent_counts(total_clients, 0);
  std::vector<uint64_t> queued_counts(total_clients, 0);
  std::vector<double> lag_max(total_clients, 0.0);
  std::vector<obs::LatencyHistogram> service_lats(total_clients);
  // Flash-crowd phase tallies (crowd>1 only), classified at reply time
  // against the ramp: [0] = pre-crowd, [1] = crowd phase.
  std::vector<std::array<PhaseStats, 2>> phases(ok.crowd > 1 ? total_clients : 0);
  std::vector<std::thread> threads;
  threads.reserve(total_clients);

  double t0 = monotonic_seconds();
  for (size_t c = 0; c < total_clients; ++c) {
    threads.emplace_back([&, c]() {
      if (c >= clients) {
        // Crowd client: sleeps until t0+ramp, then joins with a fresh
        // connection — the step arrival the flash-crowd runs measure
        // overload-control recovery from.
        while (!stop_flag.load(std::memory_order_relaxed)) {
          double wait = t0 + ok.ramp - monotonic_seconds();
          if (wait <= 0.0) break;
          std::this_thread::sleep_for(
              std::chrono::duration<double>(std::min(wait, 0.01)));
        }
        if (stop_flag.load(std::memory_order_relaxed)) return;
      }
      // One persistent frame connection per thread.
      net::FrameClient client(daemon.port());
      // Per-thread LCG so every sweep runs the identical trace per thread.
      uint64_t rng = 0x9e3779b97f4a7c15ULL + c;
      uint64_t id = c << 32;
      // Draws the next target off the per-thread trace: the dup= hot-key
      // bias, the QoS class, and the stallpct mute-route mapping, shared by
      // both loop shapes.
      auto next_payload = [&](uint8_t& qos) {
        rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
        uint64_t key = (rng >> 33) % keys;
        // dup: this fraction of requests targets the single hottest key —
        // the flash-crowd shape the single-flight layer exists for.
        if (knobs.dup > 0.0) {
          rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
          if (static_cast<double>(rng >> 40) / 16777216.0 < knobs.dup) key = 0;
        }
        qos = static_cast<uint8_t>(1 + key % 3);
        // The bottom stallpct% of the keyspace maps to the backend's mute
        // route: the exchange stalls half-open and only the deadline (via
        // the broker's cancel token) resolves it.
        bool stalled = keys > 0 && (key * 100) / keys < stallpct;
        return (stalled ? "/stall-" : "/object-") + std::to_string(key);
      };
      // Useful = the reply carried a usable result (full/cached/degraded
      // fidelity) — busy notices and errors are completed but
      // not useful, the distinction goodput accounting rests on.
      // Mispaired = a full or cached reply whose body is not the one the
      // replica serves for this target: the backend channel matched a
      // response to the wrong request.
      struct CallOutcome {
        bool got_reply = false;
        bool matched = false;
        bool useful = false;
        bool mispaired = false;
      };
      auto wrong_body = [](http::Fidelity fidelity, const std::string& target,
                           std::string_view body) {
        bool served = fidelity == http::Fidelity::kFull ||
                      fidelity == http::Fidelity::kCached;
        return served && body != "body of " + target;
      };
      auto call_once = [&](uint64_t rid, const std::string& payload,
                           uint8_t qos) {
        CallOutcome o;
        auto reply = client.call(rid, payload, qos, timeout_ms);
        o.got_reply = reply.has_value();
        o.matched = reply && reply->request_id == rid;
        o.useful = o.matched && reply->fidelity != http::Fidelity::kBusy &&
                   reply->fidelity != http::Fidelity::kError;
        o.mispaired =
            o.matched && wrong_body(reply->fidelity, payload, reply->payload);
        if (o.mispaired) ++mispaired[c];
        return o;
      };

      if (open_loop) {
        // Open loop: requests are *due* at schedule times whether or not the
        // broker keeps up. Latency is measured from the intended send time,
        // so a request that had to wait for its (serial) sender reports the
        // wait — the coordinated-omission fix. The schedule is a pure
        // function of (config, seed): every sweep offers the identical
        // trace.
        wl::ArrivalConfig acfg;
        acfg.kind = *ak.kind;
        acfg.rate = ak.rate / static_cast<double>(clients);
        acfg.duty = ak.duty;
        acfg.period = ak.period;
        acfg.floor_frac = ak.floor_frac;
        wl::ArrivalSchedule schedule(acfg, util::derive_seed(ak.seed, c));
        // Safety valve for a wedged run: anything still unsent by then stays
        // scheduled-but-unsent and fails the check gate loudly.
        double hard_stop = t0 + seconds + std::max(5.0, 2.0 * seconds);
        for (;;) {
          double offset = schedule.next();
          if (offset >= seconds) break;  // window's schedule fully consumed
          ++scheduled_counts[c];
          double intended = t0 + offset;
          for (;;) {
            double now = monotonic_seconds();
            if (now >= intended) break;
            std::this_thread::sleep_for(std::chrono::duration<double>(
                std::min(intended - now, 0.002)));
          }
          double send_at = monotonic_seconds();
          if (send_at > hard_stop) break;
          if (send_at - intended > 0.001) {
            ++queued_counts[c];
            lag_max[c] = std::max(lag_max[c], send_at - intended);
          }
          uint8_t qos = 1;
          std::string payload = next_payload(qos);
          uint64_t rid = ++id;
          ++sent_counts[c];
          CallOutcome o = call_once(rid, payload, qos);
          double end = monotonic_seconds();
          if (o.matched) {
            ++counts[c];
            latencies[c].record_seconds(end - intended);    // corrected
            service_lats[c].record_seconds(end - send_at);  // the biased view
          } else {
            ++failures[c];
            if (!o.got_reply) break;  // connection is gone; stop this client
          }
        }
        return;
      }

      std::vector<std::string> batch;  // burst>1 only
      // Closed loop. `start` stamps once per *logical* request: after a busy
      // reply with backoff the client sleeps and retries the same target
      // WITHOUT re-stamping, so the eventual useful reply reports first
      // attempt + backoff + retry. Re-stamping after the sleep (the old
      // behavior) hid the entire backoff from p50/p99.
      bool retry_pending = false;
      double start = 0.0;
      uint8_t qos = 1;
      std::string payload;
      while (!stop_flag.load(std::memory_order_relaxed)) {
        if (!retry_pending) {
          payload = next_payload(qos);
          start = monotonic_seconds();
        }
        retry_pending = false;
        if (burst > 1) {
          // Pipelined burst: `burst` frames in one send, replies collected
          // after — the shape that exercises the cycle-end write coalescing.
          batch.assign(burst, payload);
          uint64_t first_id = id + 1;
          id += burst;
          auto replies = client.call_burst(first_id, batch, qos, timeout_ms);
          double elapsed = monotonic_seconds() - start;
          counts[c] += replies.size();
          for (const net::FrameReply& reply : replies) {
            if (wrong_body(reply.fidelity, payload, reply.payload)) ++mispaired[c];
          }
          if (replies.size() == burst) {
            latencies[c].record_seconds(elapsed);
          } else {
            failures[c] += burst - replies.size();
            break;  // connection is gone; stop this client
          }
          continue;
        }
        uint64_t rid = ++id;
        CallOutcome o = call_once(rid, payload, qos);
        double elapsed = monotonic_seconds() - start;
        if (o.matched) {
          ++counts[c];
          // A busy reply about to be retried is not the end of the logical
          // request — its latency lands on the eventual useful reply.
          bool will_retry = !o.useful && ok.backoff_ms > 0.0;
          if (!will_retry) latencies[c].record_seconds(elapsed);
          if (ok.crowd > 1) {
            PhaseStats& ph = phases[c][start + elapsed - t0 < ok.ramp ? 0 : 1];
            ++ph.replies;
            if (o.useful) {
              ++ph.useful;
              ph.useful_latency.record_seconds(elapsed);
              // Good = useful and within the client deadline (5ms wire slack).
              if (timeout_ms == 0 || elapsed <= timeout_ms * 1e-3 + 0.005) ++ph.good;
            }
          }
          if (will_retry) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(ok.backoff_ms * 1e-3));
            retry_pending = true;
          }
        } else {
          ++failures[c];
          if (!o.got_reply) break;  // connection is gone; stop this client
        }
      }
    });
  }

  RunResult r;
  if (scrape) {
    // Mid-window: the admin plane must answer while every client is
    // hammering the broker — it runs on its own reactor thread precisely so
    // scrapes do not queue behind admission work.
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds / 2));
    http::Request probe;
    probe.target = "/healthz";
    auto health = net::http_fetch(daemon.admin_port(), probe);
    probe.target = "/metrics";
    auto metrics_page = net::http_fetch(daemon.admin_port(), probe);
    r.admin_live = health && health->status == 200 && metrics_page &&
                   metrics_page->status == 200 &&
                   metrics_page->body.find("sbroker_requests_total") !=
                       std::string::npos;
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds / 2));
  } else {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
  stop_flag.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  double wall = monotonic_seconds() - t0;

  if (scrape) {
    // Post-window, daemon still running: the broker-side view of the run.
    http::Request probe;
    probe.target = "/statusz";
    auto statusz = net::http_fetch(daemon.admin_port(), probe);
    if (statusz && statusz->status == 200) {
      r.scraped = parse_statusz(statusz->body, r);
    }
  }

  r.shards = shards;
  r.pipelined = pipelined;
  r.wire = daemon.aggregate_wire_stats();
  r.dup = knobs.dup;
  r.policy = core::balance_policy_name(rk.policy);
  r.skew = rk.skew;
  r.replicas = rk.replicas;
  r.seconds = wall;
  r.overload = ok.spec;
  r.window = ok.window;
  r.crowd = ok.crowd;
  r.ramp = ok.ramp;
  r.arrivals = ak.name;
  r.open_loop = open_loop;
  r.offered_rate = ak.rate;
  r.link = lk.name;
  for (const auto& proxy : proxies) {
    r.proxy_max_delay = std::max(r.proxy_max_delay, proxy->max_delay());
    r.proxy_bytes += proxy->bytes_relayed();
  }
  for (size_t c = 0; c < total_clients; ++c) {
    r.requests += counts[c];
    r.failures += failures[c];
    r.mispaired += mispaired[c];
    r.latency.merge(latencies[c]);
    r.scheduled += scheduled_counts[c];
    r.sent += sent_counts[c];
    r.queued_behind += queued_counts[c];
    r.max_lag = std::max(r.max_lag, lag_max[c]);
    r.service_latency.merge(service_lats[c]);
  }
  if (ok.crowd > 1) {
    r.phased = true;
    r.pre.duration = std::min(ok.ramp, wall);
    r.crowd_phase.duration = std::max(0.0, wall - ok.ramp);
    for (const auto& client : phases) {
      PhaseStats* totals[2] = {&r.pre, &r.crowd_phase};
      for (size_t i = 0; i < 2; ++i) {
        totals[i]->replies += client[i].replies;
        totals[i]->useful += client[i].useful;
        totals[i]->good += client[i].good;
        totals[i]->useful_latency.merge(client[i].useful_latency);
      }
    }
    if (r.pre.duration > 0.0) {
      r.pre.goodput = static_cast<double>(r.pre.good) / r.pre.duration;
    }
    if (r.crowd_phase.duration > 0.0) {
      r.crowd_phase.goodput =
          static_cast<double>(r.crowd_phase.good) / r.crowd_phase.duration;
    }
  }
  r.rps = wall > 0 ? static_cast<double>(r.requests) / wall : 0.0;
  r.hit_ratio = daemon.shared_cache().hit_ratio();
  // One consistent post-run snapshot per shard: both the folded metrics and
  // the per-replica picker state come from it, so the pick-conservation gate
  // (Σ picks == backend calls) compares numbers read at the same instant.
  std::vector<net::ShardStatus> status = daemon.shard_status();
  int num_levels = 1;
  for (const net::ShardStatus& s : status) {
    num_levels = std::max(num_levels, s.metrics.num_levels());
  }
  core::BrokerMetrics folded(num_levels);
  for (const net::ShardStatus& s : status) folded.merge(s.metrics);
  r.metrics = std::move(folded);
  double threshold_sum = 0.0;
  for (const net::ShardStatus& s : status) {
    threshold_sum += s.admission_threshold;
    r.overload_mode = r.overload_mode || s.overload_mode;
  }
  if (!status.empty()) {
    r.admission_threshold = threshold_sum / static_cast<double>(status.size());
  }
  r.replica_picks.assign(rk.replicas, 0);
  r.replica_ewma_ms.assign(rk.replicas, 0.0);
  for (const net::ShardStatus& s : status) {
    for (const net::ReplicaStatus& rep : s.replicas) {
      if (rep.index >= rk.replicas) continue;
      r.replica_picks[rep.index] += rep.picks;
      r.replica_ewma_ms[rep.index] =
          std::max(r.replica_ewma_ms[rep.index], rep.ewma_ms);
    }
  }
  for (uint64_t p : r.replica_picks) r.picks_total += p;
  if (rk.replicas > 1 && r.picks_total > 0) {
    r.slow_share = static_cast<double>(r.replica_picks[rk.replicas - 1]) /
                   static_cast<double>(r.picks_total);
  }
  daemon.stop();
  return r;
}

/// Parses a comma list of fractions in [0,1]; empty result means a parse
/// error (the dup= sweep dimension).
std::vector<double> parse_fraction_list(const std::string& list) {
  std::vector<double> values;
  for (size_t pos = 0; pos < list.size();) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    std::string token = list.substr(pos, comma - pos);
    try {
      size_t consumed = 0;
      double f = std::stod(token, &consumed);
      if (consumed != token.size() || f < 0.0 || f > 1.0) {
        throw std::invalid_argument(token);
      }
      values.push_back(f);
    } catch (const std::exception&) {
      return {};
    }
    pos = comma + 1;
  }
  return values;
}

/// Parses a comma list of unsigned values; empty result means a parse error.
std::vector<size_t> parse_list(const std::string& list, size_t min_value) {
  std::vector<size_t> values;
  for (size_t pos = 0; pos < list.size();) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    std::string token = list.substr(pos, comma - pos);
    try {
      size_t consumed = 0;
      size_t n = std::stoul(token, &consumed);
      if (consumed != token.size() || n < min_value) {
        throw std::invalid_argument(token);
      }
      values.push_back(n);
    } catch (const std::exception&) {
      return {};
    }
    pos = comma + 1;
  }
  return values;
}

/// Parses a comma list of doubles >= min_value; empty means a parse error
/// (the skew= sweep dimension).
std::vector<double> parse_double_list(const std::string& list,
                                      double min_value) {
  std::vector<double> values;
  for (size_t pos = 0; pos < list.size();) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    std::string token = list.substr(pos, comma - pos);
    try {
      size_t consumed = 0;
      double f = std::stod(token, &consumed);
      if (consumed != token.size() || f < min_value) {
        throw std::invalid_argument(token);
      }
      values.push_back(f);
    } catch (const std::exception&) {
      return {};
    }
    pos = comma + 1;
  }
  return values;
}

/// Parses the policy= comma list; empty result means a parse error.
std::vector<core::BalancePolicy> parse_policy_list(const std::string& list) {
  std::vector<core::BalancePolicy> values;
  for (size_t pos = 0; pos < list.size();) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    auto policy = core::parse_balance_policy(list.substr(pos, comma - pos));
    if (!policy) return {};
    values.push_back(*policy);
    pos = comma + 1;
  }
  return values;
}

/// Parses the overload= comma list into controller configs on top of the
/// shared base; empty result means a parse error.
std::vector<OverloadKnobs> parse_overload_list(
    const std::string& list, const core::OverloadConfig& base) {
  std::vector<OverloadKnobs> values;
  for (size_t pos = 0; pos < list.size();) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    std::string token = list.substr(pos, comma - pos);
    auto config = core::parse_overload_spec(token, base);
    if (!config) return {};
    OverloadKnobs ok;
    ok.spec = std::move(token);
    ok.config = *config;
    values.push_back(std::move(ok));
    pos = comma + 1;
  }
  return values;
}

/// Parses the arrivals= comma list; empty result means a parse error.
std::vector<ArrivalKnobs> parse_arrival_list(const std::string& list) {
  std::vector<ArrivalKnobs> values;
  for (size_t pos = 0; pos < list.size();) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    std::string token = list.substr(pos, comma - pos);
    ArrivalKnobs ak;
    ak.name = token;
    if (token != "closed") {
      auto kind = wl::ArrivalSchedule::parse_kind(token);
      if (!kind) return {};
      ak.kind = *kind;
    }
    values.push_back(std::move(ak));
    pos = comma + 1;
  }
  return values;
}

/// Parses link= (none | wan | cell | custom:<lat_ms>:<jitter_ms>:<kbps>)
/// into a shim profile. Returns false on a parse error.
bool parse_link_spec(const std::string& spec, LinkKnobs& lk) {
  lk.name = spec;
  if (spec == "none") return true;
  if (spec == "wan") {
    lk.profile = sim::wan_profile();
    return true;
  }
  if (spec == "cell") {
    lk.profile = sim::cellular_profile();
    return true;
  }
  if (spec.rfind("custom:", 0) == 0) {
    double v[3];
    size_t pos = 7;
    for (int i = 0; i < 3; ++i) {
      size_t end = (i == 2) ? spec.size() : spec.find(':', pos);
      if (end == std::string::npos) return false;
      std::string token = spec.substr(pos, end - pos);
      try {
        size_t consumed = 0;
        v[i] = std::stod(token, &consumed);
        if (consumed != token.size() || v[i] < 0.0) return false;
      } catch (const std::exception&) {
        return false;
      }
      pos = end + 1;
    }
    sim::Link::Params p;
    p.latency = v[0] * 1e-3;
    p.jitter = v[1] * 1e-3;
    p.bytes_per_second = v[2] * 125.0;  // kbit/s -> bytes/s
    lk.profile = p;
    return true;
  }
  return false;
}

/// The bench smoke invariants: every request issued at some shard was
/// answered exactly once, partitioned cleanly into the four outcomes, and
/// every client got every reply it waited for.
bool conservation_holds(const RunResult& r) {
  core::BrokerMetrics::ClassCounters total = r.metrics.total();
  bool ok = true;
  if (r.failures != 0) {
    std::fprintf(stderr, "conservation: %llu client-side failures\n",
                 static_cast<unsigned long long>(r.failures));
    ok = false;
  }
  if (r.mispaired != 0) {
    std::fprintf(stderr,
                 "payload check: %llu full/cached replies carried another "
                 "target's body\n",
                 static_cast<unsigned long long>(r.mispaired));
    ok = false;
  }
  if (total.issued != r.requests) {
    std::fprintf(stderr, "conservation: issued %llu != client replies %llu\n",
                 static_cast<unsigned long long>(total.issued),
                 static_cast<unsigned long long>(r.requests));
    ok = false;
  }
  if (total.completed != total.issued) {
    std::fprintf(stderr, "conservation: completed %llu != issued %llu\n",
                 static_cast<unsigned long long>(total.completed),
                 static_cast<unsigned long long>(total.issued));
    ok = false;
  }
  if (total.forwarded + total.dropped + total.cache_hits + total.errors !=
      total.issued) {
    std::fprintf(stderr,
                 "conservation: forwarded %llu + dropped %llu + cached %llu + "
                 "errors %llu != issued %llu\n",
                 static_cast<unsigned long long>(total.forwarded),
                 static_cast<unsigned long long>(total.dropped),
                 static_cast<unsigned long long>(total.cache_hits),
                 static_cast<unsigned long long>(total.errors),
                 static_cast<unsigned long long>(total.issued));
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  util::Config cfg = util::Config::from_args(argc, argv);
  std::string shard_list = cfg.get_string("shards", "1,2,4");
  std::string pipeline_list = cfg.get_string("pipeline", "0,1");
  size_t clients = static_cast<size_t>(cfg.get_int("clients", 8));
  double seconds = cfg.get_double("seconds", 2.0);
  uint64_t keys = static_cast<uint64_t>(cfg.get_int("keys", 512));
  double threshold = cfg.get_double("threshold", 64.0);
  bool cache = cfg.get_bool("cache", true);
  bool check = cfg.get_bool("check", false);
  uint32_t timeout_ms = static_cast<uint32_t>(cfg.get_int("timeout", 0));
  uint64_t stallpct = static_cast<uint64_t>(cfg.get_int("stallpct", 0));
  int attempts = static_cast<int>(cfg.get_int("attempts", 1));
  bool obs_on = cfg.get_bool("obs", true);
  bool scrape = cfg.get_bool("scrape", true);
  CacheKnobs knobs;
  std::string dup_list = cfg.get_string("dup", "0");
  knobs.ttl = cfg.get_double("ttl", 3600.0);
  knobs.grace = cfg.get_double("grace", 0.0);
  knobs.jitter = cfg.get_double("jitter", 0.0);
  knobs.negttl = cfg.get_double("negttl", 0.0);
  knobs.coalesce = cfg.get_bool("coalesce", true);
  size_t burst = static_cast<size_t>(cfg.get_int("burst", 1));
  std::string policy_list = cfg.get_string("policy", "least-outstanding");
  std::string skew_list = cfg.get_string("skew", "1");
  ReplicaKnobs rk;
  rk.replicas = static_cast<size_t>(cfg.get_int("replicas", 1));
  rk.svc_ms = cfg.get_double("svc", 0.0);
  rk.svc_jitter = cfg.get_double("svcjitter", 0.1);
  rk.degrade = cfg.get_double("degrade", 0.0);
  std::string overload_list = cfg.get_string("overload", "static");
  size_t window = static_cast<size_t>(cfg.get_int("window", 0));
  double oeval = cfg.get_double("oeval", 0.05);
  size_t crowd_mult = static_cast<size_t>(cfg.get_int("crowd", 1));
  double ramp = cfg.get_double("ramp", seconds / 3.0);
  double backoff = cfg.get_double("backoff", 0.0);
  std::string arrivals_list = cfg.get_string("arrivals", "closed");
  double rate = cfg.get_double("rate", 0.0);
  uint64_t run_seed = static_cast<uint64_t>(cfg.get_int("seed", 1));
  double duty = cfg.get_double("duty", 0.3);
  double arr_period = cfg.get_double("period", 1.0);
  double floor_frac = cfg.get_double("floor", 0.2);
  std::string link_spec = cfg.get_string("link", "none");
  std::string out = cfg.get_string("out", "BENCH_daemon.json");

  std::vector<size_t> sweep = parse_list(shard_list, 1);
  if (sweep.empty()) {
    std::fprintf(stderr,
                 "error: shards=%s is not a comma list of positive counts "
                 "(e.g. shards=1,2,4)\n", shard_list.c_str());
    return 1;
  }
  std::vector<size_t> modes = parse_list(pipeline_list, 0);
  for (size_t m : modes) {
    if (m > 1) modes.clear();
  }
  if (modes.empty()) {
    std::fprintf(stderr, "error: pipeline=%s must be a comma list of 0/1\n",
                 pipeline_list.c_str());
    return 1;
  }
  if (clients == 0 || seconds <= 0.0 || keys == 0) {
    std::fprintf(stderr, "error: need clients>=1, seconds>0, keys>=1\n");
    return 1;
  }
  if (stallpct > 100) {
    std::fprintf(stderr, "error: stallpct=%llu must be 0..100\n",
                 static_cast<unsigned long long>(stallpct));
    return 1;
  }
  if (stallpct > 0 && timeout_ms == 0) {
    std::fprintf(stderr,
                 "error: stallpct>0 needs timeout>0 — a stalled request with "
                 "no deadline blocks its closed-loop client forever\n");
    return 1;
  }
  if (attempts < 1) {
    std::fprintf(stderr, "error: attempts must be >= 1\n");
    return 1;
  }
  std::vector<double> dups = parse_fraction_list(dup_list);
  if (dups.empty()) {
    std::fprintf(stderr,
                 "error: dup=%s must be a comma list of fractions in 0..1 "
                 "(e.g. dup=0,0.5,0.8)\n", dup_list.c_str());
    return 1;
  }
  if (knobs.ttl <= 0.0 || knobs.grace < 0.0 || knobs.jitter < 0.0 ||
      knobs.negttl < 0.0) {
    std::fprintf(stderr, "error: need ttl>0, grace>=0, jitter>=0, negttl>=0\n");
    return 1;
  }
  if (burst < 1) {
    std::fprintf(stderr, "error: burst must be >= 1\n");
    return 1;
  }
  std::vector<core::BalancePolicy> policies = parse_policy_list(policy_list);
  if (policies.empty()) {
    std::fprintf(stderr,
                 "error: policy=%s must be a comma list drawn from random,"
                 "round-robin,least-outstanding,weighted,ewma,p2c\n",
                 policy_list.c_str());
    return 1;
  }
  std::vector<double> skews = parse_double_list(skew_list, 1.0);
  if (skews.empty()) {
    std::fprintf(stderr,
                 "error: skew=%s must be a comma list of multipliers >= 1\n",
                 skew_list.c_str());
    return 1;
  }
  if (rk.replicas < 1 || rk.svc_ms < 0.0 || rk.svc_jitter < 0.0 ||
      rk.degrade < 0.0) {
    std::fprintf(stderr,
                 "error: need replicas>=1, svc>=0, svcjitter>=0, degrade>=0\n");
    return 1;
  }
  double max_skew = *std::max_element(skews.begin(), skews.end());
  if (max_skew > 1.0 && (rk.replicas < 2 || rk.svc_ms <= 0.0)) {
    std::fprintf(stderr,
                 "error: skew>1 needs replicas>=2 and svc>0 — with a single "
                 "replica or zero service time there is nothing to skew\n");
    return 1;
  }
  if (oeval <= 0.0) {
    std::fprintf(stderr, "error: oeval must be > 0\n");
    return 1;
  }
  core::OverloadConfig overload_base;
  overload_base.eval_interval = oeval;
  std::vector<OverloadKnobs> overloads =
      parse_overload_list(overload_list, overload_base);
  if (overloads.empty()) {
    std::fprintf(stderr,
                 "error: overload=%s must be a comma list drawn from "
                 "static,aimd,aimd+lifo,static+lifo\n", overload_list.c_str());
    return 1;
  }
  if (crowd_mult < 1) {
    std::fprintf(stderr, "error: crowd must be >= 1\n");
    return 1;
  }
  if (crowd_mult > 1 && timeout_ms == 0) {
    std::fprintf(stderr,
                 "error: crowd>1 needs timeout>0 — goodput is defined against "
                 "the client deadline\n");
    return 1;
  }
  if (crowd_mult > 1 && burst > 1) {
    std::fprintf(stderr, "error: crowd>1 requires burst=1\n");
    return 1;
  }
  if (crowd_mult > 1 && (ramp <= 0.0 || ramp >= seconds)) {
    std::fprintf(stderr,
                 "error: ramp=%.3g must fall strictly inside the %.3gs "
                 "window for crowd>1\n", ramp, seconds);
    return 1;
  }
  if (backoff < 0.0) {
    std::fprintf(stderr, "error: backoff must be >= 0\n");
    return 1;
  }
  std::vector<ArrivalKnobs> arrival_sweep = parse_arrival_list(arrivals_list);
  if (arrival_sweep.empty()) {
    std::fprintf(stderr,
                 "error: arrivals=%s must be a comma list drawn from "
                 "closed,poisson,bursty,diurnal\n", arrivals_list.c_str());
    return 1;
  }
  bool any_open = false;
  for (ArrivalKnobs& ak : arrival_sweep) {
    ak.rate = rate;
    ak.seed = run_seed;
    ak.duty = duty;
    ak.period = arr_period;
    ak.floor_frac = floor_frac;
    any_open = any_open || ak.kind.has_value();
  }
  if (any_open) {
    if (rate <= 0.0) {
      std::fprintf(stderr,
                   "error: open-loop arrivals need rate>0 (total offered "
                   "requests/second)\n");
      return 1;
    }
    if (duty <= 0.0 || duty > 1.0 || arr_period <= 0.0 || floor_frac < 0.0 ||
        floor_frac > 1.0) {
      std::fprintf(stderr,
                   "error: need 0<duty<=1, period>0, 0<=floor<=1\n");
      return 1;
    }
    if (crowd_mult > 1 || burst > 1 || backoff > 0.0) {
      std::fprintf(stderr,
                   "error: open-loop arrivals require crowd=1, burst=1, "
                   "backoff=0 — the schedule itself shapes the load\n");
      return 1;
    }
  }
  LinkKnobs lk_knobs;
  if (!parse_link_spec(link_spec, lk_knobs)) {
    std::fprintf(stderr,
                 "error: link=%s must be none, wan, cell, or "
                 "custom:<lat_ms>:<jitter_ms>:<kbps>\n", link_spec.c_str());
    return 1;
  }
  for (OverloadKnobs& ok : overloads) {
    ok.window = window;
    ok.crowd = crowd_mult;
    ok.ramp = ramp;
    ok.backoff_ms = backoff;
  }

  unsigned cpus = std::thread::hardware_concurrency();
  std::printf(
      "daemon_loadgen: %zu clients, %.1fs per run, %llu keys, cache=%d, "
      "timeout=%ums, stallpct=%llu, attempts=%d, obs=%d, scrape=%d, "
      "dup=%s, ttl=%.3g, grace=%.3g, jitter=%.3g, negttl=%.3g, "
      "coalesce=%d, burst=%zu, policy=%s, "
      "replicas=%zu, svc=%.3gms, svcjitter=%.3g, skew=%s, degrade=%.3g, "
      "overload=%s, window=%zu, oeval=%.3g, crowd=%zu, ramp=%.3g, "
      "backoff=%.3g, arrivals=%s, rate=%.3g, seed=%llu, link=%s, %u cpus\n",
      clients, seconds, static_cast<unsigned long long>(keys), cache ? 1 : 0,
      timeout_ms, static_cast<unsigned long long>(stallpct), attempts,
      obs_on ? 1 : 0, scrape ? 1 : 0, dup_list.c_str(), knobs.ttl, knobs.grace,
      knobs.jitter, knobs.negttl, knobs.coalesce ? 1 : 0, burst,
      policy_list.c_str(), rk.replicas, rk.svc_ms, rk.svc_jitter,
      skew_list.c_str(), rk.degrade, overload_list.c_str(), window, oeval,
      crowd_mult, ramp, backoff, arrivals_list.c_str(), rate,
      static_cast<unsigned long long>(run_seed), link_spec.c_str(), cpus);
  std::printf("%-5s %-9s %-11s %-4s %-7s %-9s %10s %10s %9s %9s %9s %9s %10s %8s %8s %9s %9s %9s %7s\n",
              "dup", "policy", "overload", "skew", "shards", "channel",
              "requests", "req/s", "p50 ms", "p99 ms", "brk p50",
              "hit%", "dropped", "misses", "retries", "conns", "bkcalls",
              "coalesc", "slow%");

  bool conservation_ok = true;
  std::vector<RunResult> results;
  for (const ArrivalKnobs& ak : arrival_sweep) {
  for (double dup : dups) {
  knobs.dup = dup;
  for (core::BalancePolicy policy : policies) {
  rk.policy = policy;
  for (const OverloadKnobs& ok : overloads) {
  for (double skew : skews) {
  rk.skew = skew;
  for (size_t shards : sweep) {
    for (size_t mode : modes) {
      RunResult r = run_one(shards, mode != 0, clients, seconds, keys,
                            threshold, cache, timeout_ms, stallpct,
                            attempts, obs_on, scrape, knobs, burst, rk,
                            ok, ak, lk_knobs);
      core::BrokerMetrics::ClassCounters total = r.metrics.total();
      std::printf("%-5.2f %-9.9s %-11.11s %-4.3g %-7zu %-9s %10llu %10.0f %9.3f %9.3f %9.3f %8.1f%% "
                  "%10llu %8llu %8llu %9llu %9llu %9llu %6.1f%%\n",
                  r.dup, r.policy.c_str(), r.overload.c_str(),
                  r.skew, r.shards,
                  r.pipelined ? "pipeline" : "stopwait",
                  static_cast<unsigned long long>(r.requests), r.rps,
                  r.latency.p50() * 1e3, r.latency.p99() * 1e3,
                  r.broker_total.p50 * 1e3, r.hit_ratio * 100.0,
                  static_cast<unsigned long long>(total.dropped),
                  static_cast<unsigned long long>(total.deadline_misses),
                  static_cast<unsigned long long>(total.retries),
                  static_cast<unsigned long long>(
                      r.metrics.transport.connections_opened),
                  static_cast<unsigned long long>(r.metrics.transport.calls),
                  static_cast<unsigned long long>(
                      r.metrics.flight.coalesced_waiters),
                  r.slow_share * 100.0);
      if (r.phased) {
        std::printf(
            "      phase pre  : %5.2fs %7llu replies %7llu good %8.1f good/s "
            "p99 %8.2f ms   thresh %.1f sheds %llu lifo %llu\n",
            r.pre.duration, static_cast<unsigned long long>(r.pre.replies),
            static_cast<unsigned long long>(r.pre.good), r.pre.goodput,
            r.pre.useful_latency.p99() * 1e3, r.admission_threshold,
            static_cast<unsigned long long>(total.deadline_misses),
            static_cast<unsigned long long>(total.lifo_sheds));
        std::printf(
            "      phase crowd: %5.2fs %7llu replies %7llu good %8.1f good/s "
            "p99 %8.2f ms\n",
            r.crowd_phase.duration,
            static_cast<unsigned long long>(r.crowd_phase.replies),
            static_cast<unsigned long long>(r.crowd_phase.good),
            r.crowd_phase.goodput, r.crowd_phase.useful_latency.p99() * 1e3);
      }
      if (r.open_loop) {
        std::printf(
            "      open-loop %s @ %.0f/s: scheduled %llu sent %llu "
            "queued-behind %llu maxlag %.1fms | p99 %.2fms corrected vs "
            "%.2fms uncorrected\n",
            r.arrivals.c_str(), r.offered_rate,
            static_cast<unsigned long long>(r.scheduled),
            static_cast<unsigned long long>(r.sent),
            static_cast<unsigned long long>(r.queued_behind),
            r.max_lag * 1e3, r.latency.p99() * 1e3,
            r.service_latency.p99() * 1e3);
      }
      if (check && r.open_loop) {
        // Open-loop honesty gates: every scheduled arrival was put on the
        // wire (an overloaded run queues behind, it never elides), and
        // correcting latency back to the intended send time can only raise
        // percentiles relative to the biased from-actual-send view.
        if (r.scheduled == 0 || r.sent != r.scheduled) {
          std::fprintf(stderr,
                       "open-loop omission check FAILED: scheduled %llu != "
                       "sent %llu (arrivals=%s shards=%zu pipeline=%zu)\n",
                       static_cast<unsigned long long>(r.scheduled),
                       static_cast<unsigned long long>(r.sent),
                       r.arrivals.c_str(), shards, mode);
          conservation_ok = false;
        }
        if (r.latency.p99() + 1e-9 < r.service_latency.p99()) {
          std::fprintf(stderr,
                       "open-loop correction check FAILED: corrected p99 "
                       "%.3fms below uncorrected %.3fms (arrivals=%s)\n",
                       r.latency.p99() * 1e3, r.service_latency.p99() * 1e3,
                       r.arrivals.c_str());
          conservation_ok = false;
        }
      }
      if (check && r.picks_total != r.metrics.transport.calls) {
        // Every balancer pick carries exactly one backend invoke (the
        // connection pool never saturates at these client counts), so the
        // per-replica pick counters must sum to the channel's call counter.
        std::fprintf(stderr,
                     "pick conservation FAILED: picks %llu != backend calls "
                     "%llu (policy=%s shards=%zu pipeline=%zu)\n",
                     static_cast<unsigned long long>(r.picks_total),
                     static_cast<unsigned long long>(r.metrics.transport.calls),
                     r.policy.c_str(), shards, mode);
        conservation_ok = false;
      }
      if (check && !conservation_holds(r)) {
        std::fprintf(stderr, "conservation violated: shards=%zu pipeline=%zu\n",
                     shards, mode);
        conservation_ok = false;
      }
      if (check) {
        // The frame gates: every client request arrived as a frame, every
        // reply left through the coalesced-flush path, and the flush
        // counters are live (flushed_responses > flushes is only
        // guaranteed with burst>1 pipelining, so gate on >= here).
        if (r.wire.frames_in != r.requests ||
            r.wire.flushed_responses < r.wire.frames_in ||
            r.wire.flushes == 0 ||
            r.wire.flushed_responses < r.wire.flushes) {
          std::fprintf(
              stderr,
              "binary wire check FAILED: frames_in=%llu requests=%llu "
              "flushes=%llu flushed_responses=%llu (shards=%zu pipeline=%zu)\n",
              static_cast<unsigned long long>(r.wire.frames_in),
              static_cast<unsigned long long>(r.requests),
              static_cast<unsigned long long>(r.wire.flushes),
              static_cast<unsigned long long>(r.wire.flushed_responses),
              shards, mode);
          conservation_ok = false;
        }
        if (burst > 1 && r.wire.flushed_responses <= r.wire.flushes) {
          std::fprintf(stderr,
                       "coalescing check FAILED: burst=%zu but flushed %llu "
                       "responses in %llu flushes (no batching)\n",
                       burst,
                       static_cast<unsigned long long>(r.wire.flushed_responses),
                       static_cast<unsigned long long>(r.wire.flushes));
          conservation_ok = false;
        }
      }
      if (check && knobs.dup > 0.0 && cache && knobs.coalesce) {
        // The point of the dup dimension: under hot-key repetition the
        // anti-stampede layer must keep backend work well below the client
        // request count, and concurrent identical misses must actually have
        // coalesced (not merely hit a still-fresh cache entry).
        if (r.metrics.transport.calls >= r.requests) {
          std::fprintf(stderr,
                       "stampede check FAILED: backend calls %llu >= client "
                       "requests %llu under dup=%.2f (shards=%zu pipeline=%zu)\n",
                       static_cast<unsigned long long>(r.metrics.transport.calls),
                       static_cast<unsigned long long>(r.requests), knobs.dup,
                       shards, mode);
          conservation_ok = false;
        }
        if (r.metrics.flight.coalesced_waiters == 0) {
          std::fprintf(stderr,
                       "stampede check FAILED: no misses coalesced under "
                       "dup=%.2f (shards=%zu pipeline=%zu)\n",
                       knobs.dup, shards, mode);
          conservation_ok = false;
        }
      }
      if (check && scrape) {
        // The admin plane must serve under load, and the broker-side total
        // latency (submit -> reply inside the daemon) must sit at or below
        // what clients time across the wire. Slack: histogram midpoint
        // error (1/64) plus scheduling noise on sub-millisecond runs.
        if (!r.admin_live || !r.scraped) {
          std::fprintf(stderr,
                       "admin scrape FAILED: healthz/metrics live=%d, "
                       "statusz parsed=%d (shards=%zu pipeline=%zu)\n",
                       r.admin_live ? 1 : 0, r.scraped ? 1 : 0, shards, mode);
          conservation_ok = false;
        } else if (backoff == 0.0 &&
                   r.broker_total.p50 > r.latency.p50() * 1.05 + 0.0005) {
          // (backoff>0 voids the subset premise: the client folds busy
          // attempts into one logical latency sample while the broker still
          // times every wire request individually.)
          std::fprintf(stderr,
                       "broker-side p50 %.3fms exceeds client-side p50 "
                       "%.3fms (shards=%zu pipeline=%zu)\n",
                       r.broker_total.p50 * 1e3,
                       r.latency.p50() * 1e3, shards, mode);
          conservation_ok = false;
        }
      }
      results.push_back(std::move(r));
    }
  }
  }
  }
  }
  }
  }

  if (check && max_skew >= 4.0 && rk.replicas >= 2) {
    // The point of the policy dimension: at heavy skew the latency-aware
    // policies must route a smaller share of picks to the slow replica than
    // blind round-robin does, per matching sweep combination.
    for (const RunResult& rr_run : results) {
      if (rr_run.policy != "round-robin" || rr_run.skew < 4.0) continue;
      for (const RunResult& r : results) {
        if ((r.policy != "ewma" && r.policy != "p2c") ||
            r.arrivals != rr_run.arrivals || r.dup != rr_run.dup ||
            r.skew != rr_run.skew ||
            r.shards != rr_run.shards || r.pipelined != rr_run.pipelined) {
          continue;
        }
        if (r.slow_share >= rr_run.slow_share) {
          std::fprintf(stderr,
                       "policy check FAILED: %s slow-replica share %.1f%% not "
                       "below round-robin's %.1f%% (skew=%.3g shards=%zu "
                       "pipeline=%d)\n",
                       r.policy.c_str(), r.slow_share * 100.0,
                       rr_run.slow_share * 100.0, r.skew, r.shards,
                       r.pipelined ? 1 : 0);
          conservation_ok = false;
        }
      }
    }
  }

  if (check && crowd_mult > 1) {
    // The point of the overload dimension: under the flash crowd the
    // feedback-driven controllers must deliver at least the static rule's
    // crowd-phase goodput, per matching sweep combination.
    for (const RunResult& base : results) {
      if (base.overload != "static") continue;
      for (const RunResult& r : results) {
        if (r.overload == "static" || r.arrivals != base.arrivals ||
            r.dup != base.dup || r.policy != base.policy || r.skew != base.skew ||
            r.shards != base.shards || r.pipelined != base.pipelined) {
          continue;
        }
        if (r.crowd_phase.goodput < base.crowd_phase.goodput) {
          std::fprintf(stderr,
                       "overload check FAILED: %s crowd-phase goodput %.1f/s "
                       "below static's %.1f/s (shards=%zu pipeline=%d)\n",
                       r.overload.c_str(), r.crowd_phase.goodput,
                       base.crowd_phase.goodput, r.shards,
                       r.pipelined ? 1 : 0);
          conservation_ok = false;
        }
      }
    }
  }

  util::JsonWriter json;
  json.begin_object()
      .field("bench", "daemon_loadgen")
      .field("host_cpus", static_cast<uint64_t>(cpus))
      .field("clients", clients)
      .field("window_seconds", seconds)
      .field("keys", keys)
      .field("threshold", threshold)
      .field("cache", cache)
      .field("timeout_ms", static_cast<uint64_t>(timeout_ms))
      .field("stallpct", stallpct)
      .field("attempts", static_cast<uint64_t>(attempts))
      .field("obs", obs_on)
      .field("scrape", scrape)
      .field("cache_ttl", knobs.ttl)
      .field("swr_grace", knobs.grace)
      .field("ttl_jitter", knobs.jitter)
      .field("negative_ttl", knobs.negttl)
      .field("coalesce", knobs.coalesce)
      .field("burst", burst)
      .field("replicas", static_cast<uint64_t>(rk.replicas))
      .field("svc_ms", rk.svc_ms)
      .field("svc_jitter", rk.svc_jitter)
      .field("degrade_after", rk.degrade)
      .field("dispatch_window", static_cast<uint64_t>(window))
      .field("overload_eval_interval", oeval)
      .field("crowd", static_cast<uint64_t>(crowd_mult))
      .field("ramp_seconds", ramp)
      .field("busy_backoff_ms", backoff)
      .field("arrivals", arrivals_list)
      .field("offered_rate", rate)
      .field("arrival_seed", run_seed)
      .field("bursty_duty", duty)
      .field("arrival_period", arr_period)
      .field("diurnal_floor", floor_frac)
      .field("link", link_spec)
      .key("runs")
      .begin_array();
  for (const RunResult& r : results) {
    core::BrokerMetrics::ClassCounters total = r.metrics.total();
    json.begin_object()
        .field("dup", r.dup)
        .field("policy", r.policy)
        .field("overload", r.overload)
        .field("arrivals", r.arrivals)
        .field("link", r.link)
        .field("skew", r.skew)
        .field("replicas", static_cast<uint64_t>(r.replicas))
        .field("shards", r.shards)
        .field("pipelined", r.pipelined)
        .field("requests", r.requests)
        .field("failures", r.failures)
        .field("mispaired", r.mispaired)
        .field("seconds", r.seconds)
        .field("rps", r.rps)
        .field("latency_mean_ms", r.latency.mean_seconds() * 1e3)
        .field("latency_p50_ms", r.latency.p50() * 1e3)
        .field("latency_p99_ms", r.latency.p99() * 1e3)
        .field("cache_hit_ratio", r.hit_ratio)
        .field("issued", total.issued)
        .field("forwarded", total.forwarded)
        .field("dropped", total.dropped)
        .field("cache_hits", total.cache_hits)
        .field("errors", total.errors)
        .field("deadline_misses", total.deadline_misses)
        .field("lifo_sheds", total.lifo_sheds)
        .field("admission_threshold", r.admission_threshold)
        .field("overload_mode", r.overload_mode)
        .field("overload_evals", r.metrics.overload.evals)
        .field("overload_increases", r.metrics.overload.increases)
        .field("overload_decreases", r.metrics.overload.decreases)
        .field("overload_enters", r.metrics.overload.enters)
        .field("overload_exits", r.metrics.overload.exits)
        .field("retries", total.retries)
        .field("cancellations", r.metrics.lifecycle.cancellations)
        .field("late_completions", r.metrics.lifecycle.late_completions)
        .field("ejections", r.metrics.lifecycle.ejections)
        .field("coalesced_waiters", r.metrics.flight.coalesced_waiters)
        .field("swr_hits", r.metrics.flight.swr_hits)
        .field("refreshes", r.metrics.flight.refreshes)
        .field("negative_hits", r.metrics.flight.negative_hits)
        .field("flight_promotions", r.metrics.flight.promotions)
        .field("backend_calls", r.metrics.transport.calls)
        .field("connections_opened", r.metrics.transport.connections_opened)
        .field("open_connections", r.metrics.transport.open_connections)
        .field("write_flushes", r.metrics.transport.flushes)
        .field("requests_written", r.metrics.transport.requests_written)
        .field("channel_rejections", r.metrics.transport.rejections)
        .field("channel_retries", r.metrics.transport.retries)
        .field("channel_timeouts", r.metrics.transport.timeouts)
        .field("channel_cancels", r.metrics.transport.cancels)
        .field("peak_pipeline_depth", r.metrics.transport.peak_in_flight)
        .field("frames_in", r.wire.frames_in)
        .field("fast_hits", r.wire.fast_hits)
        .field("wire_flushes", r.wire.flushes)
        .field("wire_flushed_responses", r.wire.flushed_responses)
        .field("picks_total", r.picks_total)
        .field("slow_replica_share", r.slow_share)
        .key("replica_picks")
        .begin_array();
    for (uint64_t p : r.replica_picks) json.value(p);
    json.end_array().key("replica_ewma_ms").begin_array();
    for (double e : r.replica_ewma_ms) json.value(e);
    json.end_array()
        .key("drop_ratio_per_class")
        .begin_array();
    for (int level = 1; level <= r.metrics.num_levels(); ++level) {
      json.value(r.metrics.at(level).drop_ratio());
    }
    json.end_array();
    if (r.open_loop) {
      // Schedule accounting plus the biased from-actual-send percentiles;
      // latency_p50_ms/latency_p99_ms above are the corrected numbers.
      json.field("open_loop", true)
          .field("offered_rate", r.offered_rate)
          .field("scheduled", r.scheduled)
          .field("sent", r.sent)
          .field("queued_behind", r.queued_behind)
          .field("max_send_lag_ms", r.max_lag * 1e3)
          .field("uncorrected_p50_ms", r.service_latency.p50() * 1e3)
          .field("uncorrected_p99_ms", r.service_latency.p99() * 1e3);
    }
    if (r.link != "none") {
      json.field("proxy_max_delay_ms", r.proxy_max_delay * 1e3)
          .field("proxy_bytes_relayed", r.proxy_bytes);
    }
    if (r.phased) {
      // Flash-crowd phase split: pre = [0, ramp), crowd = [ramp, end).
      json.key("phases").begin_array();
      const PhaseStats* phases[2] = {&r.pre, &r.crowd_phase};
      const char* names[2] = {"pre", "crowd"};
      for (size_t i = 0; i < 2; ++i) {
        json.begin_object()
            .field("name", names[i])
            .field("seconds", phases[i]->duration)
            .field("replies", phases[i]->replies)
            .field("useful", phases[i]->useful)
            .field("good", phases[i]->good)
            .field("goodput_rps", phases[i]->goodput)
            .field("p99_ms", phases[i]->useful_latency.p99() * 1e3)
            .end_object();
      }
      json.end_array();
    }
    if (r.scraped) {
      // Broker-side (submit -> reply inside the daemon) percentiles scraped
      // from /statusz, next to the client-side numbers above.
      json.key("broker")
          .begin_object()
          .field("count", r.broker_total.count)
          .field("p50_ms", r.broker_total.p50 * 1e3)
          .field("p95_ms", r.broker_total.p95 * 1e3)
          .field("p99_ms", r.broker_total.p99 * 1e3)
          .key("per_class")
          .begin_array();
      for (size_t i = 0; i < r.broker_class.size(); ++i) {
        json.begin_object()
            .field("class", static_cast<uint64_t>(i + 1))
            .field("count", r.broker_class[i].count)
            .field("p50_ms", r.broker_class[i].p50 * 1e3)
            .field("p95_ms", r.broker_class[i].p95 * 1e3)
            .field("p99_ms", r.broker_class[i].p99 * 1e3)
            .end_object();
      }
      json.end_array().end_object();
    }
    json.end_object();
  }
  json.end_array().end_object();

  if (!out.empty()) {
    if (std::ofstream(out) << json.str() << '\n' << std::flush) {
      std::printf("\nwrote %s\n", out.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", out.c_str());
      return 1;
    }
  } else {
    std::printf("%s\n", json.str().c_str());
  }
  if (check) {
    if (!conservation_ok) {
      std::fprintf(stderr, "conservation check FAILED\n");
      return 1;
    }
    std::printf("conservation check passed for %zu runs\n", results.size());
  }
  return 0;
}
