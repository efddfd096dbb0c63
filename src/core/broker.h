// ServiceBroker: the paper's contribution, as a composable facade.
//
// One broker fronts one backend service ("It is per service based",
// Section III). Web application processes pass it messages containing the
// query and QoS specification; the broker answers every message exactly
// once, with one of five fidelities:
//
//   kFull     — forwarded to a backend, fresh result
//   kDegraded — forwarded after a fidelity-reducing rewrite
//   kCached   — from the cache: a hit, a waiter's shared fetch, or a drop's
//               stale copy
//   kBusy     — dropped (admission, saturated pool, deadline) with a notice
//   kError    — backend failure (fresh or cached), or no backend registered
//
// Internally: TransactionTracker computes the effective QoS level; the
// ResultCache short-circuits repeats; the OverloadController applies the
// threshold/contract rules; admitted requests join the ClusterEngine, whose
// batches wait in a QosScheduler (highest class first) for a dispatch-window
// slot; the LoadBalancer picks a backend replica and the ConnectionPool
// decides whether the call pays connection setup. Prefetches (from tick())
// and stale refreshes are demand misses with no reply sink at the lowest
// class: the same admission rule, load count, queues and dispatch().
//
// Every reply, of any fidelity, leaves through one private finish(). Every
// admitted request lives in a RequestContext from admission until that
// reply: it records the QoS classification, the absolute deadline and the
// attempt budget. tick() owns a deadline queue that sheds expired
// requests (stale-cache reply when available, else busy) and — once every
// member of an in-flight exchange has expired — harvests the exchange:
// releases its pool lease, balancer charge and dispatch-window slot, and
// fires its CancelToken so the transport can abandon the stalled work. A
// failed exchange re-dispatches its members to a different replica after a
// backoff, within the attempt budget and the remaining deadline; completion
// outcomes feed the LoadBalancer's replica-health state.
//
// Time is injected: every entry point takes `now` (seconds). The owner must
// call tick(now) periodically (or whenever next_deadline() falls due) to
// flush time-based cluster batches, expire deadlines, re-dispatch retries
// and run prefetch. set_wakeup() tells the owner when the schedule moved
// earlier behind its back (a retry scheduled from a backend completion).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/arena.h"
#include "core/backend.h"
#include "core/balance.h"
#include "core/cache.h"
#include "core/cluster.h"
#include "core/flight.h"
#include "core/load.h"
#include "core/metrics.h"
#include "core/overload.h"
#include "core/pool.h"
#include "core/hotspot.h"
#include "core/prefetch.h"
#include "core/qos.h"
#include "core/request.h"
#include "core/rewrite.h"
#include "core/scheduler.h"
#include "core/txn.h"
#include "http/wire.h"
#include "obs/observer.h"

namespace sbroker::core {

/// Seconds a background fetch (prefetch or stale refresh) may take.
inline constexpr double kBackgroundDeadline = 1.0;
/// Headroom added to the transport timeout handed to backends on top of the
/// longest remaining member deadline. The broker cancels the exchange itself
/// when the deadline expires, so the transport bound is only a backstop —
/// the slack makes it lose any race against the deadline tick (a
/// transport-timeout win would burn the attempt and turn a clean deadline
/// shed into an error completion).
inline constexpr double kTransportSlack = 0.05;
/// Base pause before a retry is re-dispatched; attempt n waits
/// n * kRetryBackoff seconds.
inline constexpr double kRetryBackoff = 0.005;

struct BrokerConfig {
  QosRules rules;                  ///< levels + outstanding threshold
  /// Threshold policy (static vs AIMD feedback) and LIFO-under-overload
  /// queue discipline; the default reproduces the paper's fixed rule.
  OverloadConfig overload;
  bool enable_cache = true;
  size_t cache_capacity = 4096;
  double cache_ttl = 5.0;          ///< seconds
  bool serve_stale_on_drop = true; ///< low-fidelity cached reply on drops
  /// Single-flight miss coalescing: concurrent identical misses share one
  /// backend fetch, later arrivals wait on the first. Requires enable_cache
  /// (the completion is published through the cache). Kill switch for A/B
  /// comparison in the benches.
  bool single_flight = true;
  /// Anti-stampede cache tuning (stale-while-revalidate grace, per-key TTL
  /// jitter, negative-result TTL); applies to the broker-private cache.
  /// Shared caches installed via share_cache() carry their own tuning.
  CacheTuning cache_tuning;
  ClusterConfig cluster;           ///< degree 1 = no clustering
  PoolConfig pool;
  BalancePolicy balance = BalancePolicy::kLeastOutstanding;
  TxnConfig txn;
  HotSpotConfig hotspot;    ///< thresholds for WARM/HOT load classification
  RewriteConfig rewrite;    ///< fidelity-variation rules (disabled by default)
  /// Max batches in flight to backends; 0 = unbounded (paper's distributed
  /// model lets the backend queue; bound it to exercise the QoS scheduler).
  size_t dispatch_window = 0;
  uint64_t rng_seed = 42;          ///< seeds the balancer's random policy
  LifecycleConfig lifecycle;       ///< deadlines, attempt budget, backoff
  HealthConfig health;             ///< replica ejection / half-open recovery
  obs::ObsConfig obs;              ///< flight recorder (histograms always record)
};

class ServiceBroker {
 public:
  using ReplyFn = core::ReplyFn;

  ServiceBroker(std::string name, BrokerConfig config);
  /// Frees arenas of requests still outstanding at teardown (no replies).
  ~ServiceBroker();

  /// Registers a backend replica with a capacity weight. At least one
  /// backend must be added before submit().
  void add_backend(std::shared_ptr<Backend> backend, double weight = 1.0);

  /// Broker-to-broker state exchange (Section III): brokers that share a
  /// TransactionTracker see each other's transaction progress, so a step-2
  /// access at broker B is escalated even though step 1 ran at broker A —
  /// "transactions involving different backend servers are properly
  /// protected". Call before traffic flows; replaces the private tracker.
  void share_transactions(std::shared_ptr<TransactionTracker> shared);

  /// Replaces the private one-stripe result cache with one shared across
  /// broker shards, so a result fetched by one shard serves repeats arriving
  /// at any other. Call before traffic flows.
  void share_cache(std::shared_ptr<ResultCache> shared);

  /// Replaces the private outstanding-load counter with one shared across
  /// broker shards, so the admission threshold applies to the *global*
  /// outstanding count rather than 1/N of it. Call before traffic flows.
  void share_load(std::shared_ptr<LoadTracker> shared);

  /// Replaces the private single-flight table with one shared across broker
  /// shards, so concurrent identical misses arriving at different shards
  /// still collapse to one backend fetch. Call before traffic flows.
  void share_flights(std::shared_ptr<FlightTable> shared);

  /// Registers a thread-safe callback fired when a flight this broker is
  /// parked on resolves at another shard. The owner should arrange for
  /// tick() to run soon on the broker's own thread (the daemon posts a poke
  /// to its reactor); pure-pull users can rely on the regular tick cadence.
  void set_flight_notifier(std::function<void()> notifier) {
    flight_notifier_ = std::move(notifier);
  }

  /// Registers a tier-wide load source (the federation's gossip view, in
  /// outstanding-request units comparable to the LoadTracker). Admission
  /// then decides against max(local load, tier load): a node with local
  /// headroom sheds for the tier when its peers report overload. The
  /// callback runs on this broker's thread, once per admission check; it
  /// must synchronize internally. Call before traffic flows.
  void set_tier_load(std::function<double()> tier_load) {
    tier_load_ = std::move(tier_load);
  }

  /// Handles one request message. `reply` fires exactly once — possibly
  /// re-entrantly (cache hit / drop) or later (backend completion). Exactly
  /// try_submit_fast() into an arena of this call's own (so a re-entrant
  /// submit from inside the reply gets another), then submit_miss().
  void submit(double now, const http::BrokerRequest& request, ReplyFn reply);

  /// The one cache probe, and the allocation-free hit path: when the cache
  /// answers the request (hit / negative / stale-within-grace), replies
  /// synchronously through `reply` — the payload view lives in `scratch` —
  /// and returns true. Returns false without consuming or counting the
  /// request when it must take the full fetch path; the caller then calls
  /// submit_miss(). Every ingress and the simulator reach the cache this
  /// way, so a hit is counted, traced and recorded at one site.
  bool try_submit_fast(double now, const http::BrokerRequest& request,
                       Arena& scratch, ReplyViewFn reply);

  /// The fetch path for a request whose try_submit_fast() probe missed:
  /// admission, lifecycle context, single-flight and dispatch.
  void submit_miss(double now, const http::BrokerRequest& request, ReplyFn reply);

  /// Housekeeping: flushes overdue cluster batches, sheds deadline-expired
  /// requests (harvesting exchanges whose members all expired), re-dispatches
  /// due retries, issues due prefetches, expires idle transactions. Call at
  /// ~cluster.max_wait granularity, and whenever next_deadline() falls due.
  void tick(double now);

  /// Earliest time at which tick() has work (cluster flush, request
  /// deadline, pending retry, or a prefetch the admission gate would let
  /// out); nullopt when nothing is pending.
  std::optional<double> next_deadline() const;

  /// Registers a callback fired when the broker's schedule gains an entry
  /// earlier than the owner may have armed for — today: a retry scheduled
  /// from inside a backend completion. Owners re-arm their tick timer from
  /// it; pure-pull users (tests driving tick() manually) can ignore it.
  void set_wakeup(std::function<void()> wakeup) { wakeup_ = std::move(wakeup); }

  /// Requests (background fetches included) forwarded to backends or buffered
  /// and not yet answered *by this broker*. The admission threshold compares
  /// against the LoadTracker's count, which equals this unless share_load()
  /// installed a cross-shard counter.
  size_t outstanding() const { return outstanding_; }

  const std::string& name() const { return name_; }
  const BrokerConfig& config() const { return config_; }
  const BrokerMetrics& metrics() const { return metrics_; }
  /// tick() invocations so far; the wakeup-spin regression tests assert the
  /// broker is not re-arming a zero-delay timer forever.
  uint64_t ticks() const { return ticks_; }
  FlightTable& flight_table() { return *flight_table_; }
  /// Misses currently waiting on an in-flight identical fetch (local view).
  size_t waiting_flights() const { return flights_.size(); }
  /// Latency histograms (per class x stage) and the request flight recorder.
  /// Single-writer like the broker itself: touch only from the owning thread.
  obs::BrokerObserver& observer() { return obs_; }
  const obs::BrokerObserver& observer() const { return obs_; }
  /// Wire-level channel counters summed across this broker's backends
  /// (all-zero for simulated backends). The real-socket daemons fold this
  /// into their metrics snapshots.
  ChannelStats channel_stats() const;
  ResultCache& cache() { return *cache_; }
  const ResultCache& cache() const { return *cache_; }
  LoadTracker& load_tracker() { return *load_; }
  Prefetcher& prefetcher() { return prefetcher_; }
  /// The overload controller every admission decision routes through: live
  /// effective threshold, overload mode, feedback stats.
  const OverloadController& overload_control() const { return overload_; }
  TransactionTracker& transactions() { return *txn_; }
  HotSpotDetector& hotspot() { return hotspot_; }
  /// Current load classification of this broker's backend service.
  LoadState load_state() const { return hotspot_.state(); }
  const QueryRewriter& rewriter() const { return rewriter_; }
  const LoadBalancer& balancer() const { return balancer_; }
  const ConnectionPool& connection_pool() const { return pool_; }
  size_t backend_count() const { return backends_.size(); }

 private:
  struct ReadyBatch {
    Batch batch;
    QosLevel priority = 1;  ///< max effective level among members
    std::optional<size_t> avoid;  ///< replica the members' last attempt failed on
  };

  /// One in-flight backend exchange (a dispatched batch). Completion and
  /// deadline harvest race benignly: whichever runs first releases the pool
  /// lease / balancer charge / window slot and erases the record, so the
  /// loser finds nothing and accounting settles exactly once.
  struct Exchange {
    Batch batch;
    size_t backend = 0;
    size_t connection = 0;
    size_t unfinished = 0;  ///< live members not yet individually resolved
    double dispatched_at = 0.0;  ///< feeds the balancer's latency EWMA
    CancelTokenPtr cancel;
  };

  /// Min-heap of (time, context id); entries are lazily deleted — validity
  /// is re-checked against contexts_ when they surface.
  using TimeHeap = std::priority_queue<std::pair<double, uint64_t>,
                                       std::vector<std::pair<double, uint64_t>>,
                                       std::greater<>>;

  /// One key's local single-flight record. `leader` is the context id whose
  /// fetch chain carries the flight; a flight with a leader holds this
  /// broker's FlightTable claim, and 0 means another shard owns the fetch.
  /// `waiters` are admitted requests parked for the resolution, each still
  /// subject to its own deadline.
  struct Flight {
    uint64_t leader = 0;
    std::vector<uint64_t> waiters;
  };

  double compute_deadline(double now, uint32_t deadline_ms) const;
  double admission_load() const;
  /// The background gate: the admission rule admits the lowest class.
  bool background_admitted() const;
  /// Prefetch or stale refresh; true when the gate admitted it.
  bool submit_background(std::string_view payload, double now);
  /// submit_miss's tail: opens the context, then single-flight, cluster
  /// engine and dispatch.
  void open_fetch(double now, RequestContext init, std::string payload);
  void enqueue_batch(Batch batch, double now);
  void pump(double now);
  void dispatch(ReadyBatch ready, double now);
  void on_exchange_complete(uint64_t exchange_id, double now, bool ok,
                            const std::string& payload);
  /// How a request ended (the outcome table in obs/trace.h).
  enum class Outcome : uint8_t {
    kHit, kNegativeHit, kNoBackend, kAdmissionDrop,  // context-free
    kComplete, kError, kPoolShed, kDeadlineShed,     // an admitted context
  };

  /// One request's end, on the stack. A kBusy reply is a drop: finish()
  /// answers it from the stale copy under `key` when one is kept.
  struct Terminal {
    /// A request that ends with no context ends where it began, at `now`:
    /// its kTotal span is exactly zero.
    Terminal(const http::BrokerRequest& request, QosLevel level, Outcome o,
             http::Fidelity f, std::string_view body, double now)
        : request_id(request.request_id), base_level(level), outcome(o),
          fidelity(f), payload(body), key(request.payload), submitted_at(now) {}
    Terminal(const RequestContext& ctx, Outcome o, http::Fidelity f,
             std::string_view body)
        : request_id(ctx.request_id), base_level(ctx.base_level), outcome(o),
          fidelity(f), payload(body), key(ctx.payload),
          submitted_at(ctx.submitted_at), degraded(ctx.degraded),
          background(ctx.background), attempts(static_cast<uint16_t>(ctx.attempts)) {}

    uint64_t request_id;
    QosLevel base_level;
    Outcome outcome;
    http::Fidelity fidelity;
    std::string_view payload;
    std::string_view key;
    double submitted_at;
    bool degraded = false;
    bool background = false;
    uint16_t attempts = 0;
  };

  /// The one terminal: the class counters (completed included), the
  /// kDegraded mapping, the stale copy for a drop, the kTotal record, the
  /// terminal trace event and the reply, each once. A background fetch
  /// (no reply, no kTotal) counts in BrokerMetrics::background instead.
  void finish(const Terminal& t, double now, ReplyViewFn reply);
  /// finish() for a context already erased from contexts_; releases its
  /// load charge and frees its arena.
  void end_context(RequestContext* ctx, double now, Outcome outcome,
                   http::Fidelity fidelity, std::string_view payload);
  /// Runs ~RequestContext and returns its arena (context + payload bytes)
  /// to the pool — end_context()'s single free.
  void destroy_context(RequestContext* ctx);
  bool may_retry(const RequestContext& ctx, double now) const;
  /// Feedback-control evaluation on the tick path: snapshots the observer's
  /// total/queue-wait histograms, feeds the interval's p95 + deadline budget
  /// to the OverloadController, and flips the dispatch queue's LIFO
  /// discipline when the overload mode changed. No-op off the evaluation
  /// cadence, for static-without-lifo policies, and for an interval with
  /// fewer than kMinSamples fresh samples (its window then stretches).
  void evaluate_overload(double now);
  void expire_deadlines(double now);
  void drain_retries(double now);
  /// Queues `ctx` alone as a single-member batch at its effective class,
  /// steering off the replica of its last attempt: a retry, or a waiter
  /// promoted to lead its flight.
  void requeue_single(const RequestContext& ctx);
  void harvest_exchange(uint64_t exchange_id, double now);
  void report_health(size_t backend, bool ok, double now,
                     double latency = -1.0);

  bool single_flight_enabled() const {
    return config_.enable_cache && config_.single_flight;
  }
  /// Claims `key` in the (possibly shared) flight table; on failure the
  /// parked notify enqueues the key for drain_flight_wakeups().
  bool claim_flight(std::string_view key);
  /// Answers and detaches every waiter, releases the table claim. `ok`
  /// selects kCached vs kError waiter replies. No-op when no flight exists.
  void resolve_flight(std::string_view key, double now, bool ok,
                      std::string_view payload);
  /// Called when `member_id`'s fetch chain died without resolving its key
  /// (expired pre-dispatch, harvested, or failed with no retry budget while
  /// already shed): if it still leads the flight, promote a live waiter to
  /// leader or drop the flight.
  void settle_abandoned_flight(std::string_view key, uint64_t member_id);
  void promote_or_drop(std::string_view key);
  /// Processes keys whose flights resolved on other shards: re-probes the
  /// shared cache and answers the parked waiters (or promotes a new leader
  /// when the remote fetch died).
  void drain_flight_wakeups(double now);

  std::string name_;
  BrokerConfig config_;
  OverloadController overload_;
  std::shared_ptr<ResultCache> cache_;      ///< possibly shared across shards
  std::shared_ptr<LoadTracker> load_;       ///< possibly shared across shards
  ClusterEngine cluster_;
  QosScheduler<ReadyBatch> dispatch_queue_;
  ConnectionPool pool_;
  LoadBalancer balancer_;
  std::shared_ptr<TransactionTracker> txn_;  ///< possibly shared across brokers
  Prefetcher prefetcher_;
  HotSpotDetector hotspot_;
  QueryRewriter rewriter_;
  BrokerMetrics metrics_;
  obs::BrokerObserver obs_;

  /// Transparent hash so string_view payloads probe flights_ without a
  /// temporary std::string.
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<std::shared_ptr<Backend>> backends_;
  /// Contexts live in their own arenas (ctx->arena); the map holds raw
  /// pointers, keyed by context id. Erase + destroy_context() happen
  /// together at the terminal.
  std::unordered_map<uint64_t, RequestContext*> contexts_;
  /// Per-request arenas recycled across requests: steady state allocates
  /// nothing for context + payload + response scratch.
  ArenaPool arena_pool_;
  std::unordered_map<uint64_t, Exchange> exchanges_;
  /// Local single-flight state, keyed by canonical (post-rewrite) query.
  std::unordered_map<std::string, Flight, KeyHash, std::equal_to<>> flights_;
  std::shared_ptr<FlightTable> flight_table_;  ///< possibly shared across shards
  /// Keys resolved by other shards, pending local drain. The only
  /// cross-thread touchpoint in the broker: appended from the resolving
  /// shard's notify, drained from tick() on the owning thread.
  std::mutex flight_wakeup_mu_;
  std::vector<std::string> flight_wakeups_;
  std::atomic<bool> flight_wakeups_pending_{false};
  std::function<void()> flight_notifier_;
  uint64_t next_exchange_ = 1;
  uint64_t next_context_ = 1;  ///< 0 is the leaderless-flight sentinel
  /// Lazily-pruned from the const next_deadline(); logical state unchanged.
  mutable TimeHeap deadlines_;  ///< (absolute deadline, context id)
  mutable TimeHeap retries_;    ///< (earliest re-dispatch time, context id)
  std::function<void()> wakeup_;
  std::function<double()> tier_load_;  ///< federation gossip pressure; may be null
  size_t outstanding_ = 0;
  size_t in_flight_batches_ = 0;
  uint64_t ticks_ = 0;
  /// Overload-feedback state: next evaluation time, the previous evaluation's
  /// histogram snapshots (the histograms are cumulative; the controller
  /// judges per-interval deltas) and an EWMA of the deadline budgets seen at
  /// admission — the latency yardstick the controller derives its target from.
  double next_overload_eval_ = 0.0;
  double deadline_budget_ewma_ = 0.0;
  obs::LatencyHistogram overload_total_base_;
  obs::LatencyHistogram overload_queue_base_;
};

}  // namespace sbroker::core
