#include "core/broker.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "util/log.h"
#include "util/rng.h"

namespace sbroker::core {
namespace {

/// Fills in the TTL-jitter salt from the broker's run seed when the caller
/// left it unset, so sibling brokers de-synchronize their expiries while
/// staying reproducible from rng_seed alone.
CacheTuning salted(CacheTuning tuning, uint64_t rng_seed) {
  if (tuning.jitter_salt == 0) {
    tuning.jitter_salt = util::derive_seed(rng_seed, 0x7711);
  }
  return tuning;
}

}  // namespace

ServiceBroker::ServiceBroker(std::string name, BrokerConfig config)
    : name_(std::move(name)),
      config_(config),
      admission_(config.rules, config.overload),
      cache_(std::make_shared<ResultCache>(
          config.cache_capacity, config.cache_ttl,
          salted(config.cache_tuning, config.rng_seed))),
      load_(std::make_shared<LoadTracker>()),
      cluster_(config.cluster),
      pool_(config.pool),
      balancer_(config.balance, util::Rng(config.rng_seed), config.health,
                config.balance_ewma_tau),
      txn_(std::make_shared<TransactionTracker>(config.rules, config.txn)),
      prefetcher_(config.prefetch_idle_threshold),
      hotspot_(config.hotspot),
      rewriter_(config.rewrite, config.rules),
      metrics_(config.rules.num_levels),
      obs_(config.obs, config.rules.num_levels),
      flight_table_(std::make_shared<FlightTable>()) {}

ServiceBroker::~ServiceBroker() {
  // Requests still outstanding at teardown never get a reply (their owner is
  // going away with us); just reclaim their arenas.
  for (auto& [id, ctx] : contexts_) destroy_context(ctx);
  contexts_.clear();
}

void ServiceBroker::add_backend(std::shared_ptr<Backend> backend, double weight) {
  assert(backend != nullptr);
  backends_.push_back(std::move(backend));
  balancer_.add_backend(weight);
}

void ServiceBroker::share_transactions(std::shared_ptr<TransactionTracker> shared) {
  assert(shared != nullptr);
  txn_ = std::move(shared);
}

void ServiceBroker::share_cache(std::shared_ptr<ResultCacheBase> shared) {
  assert(shared != nullptr);
  cache_ = std::move(shared);
}

void ServiceBroker::share_load(std::shared_ptr<LoadTracker> shared) {
  assert(shared != nullptr);
  assert(outstanding_ == 0);  // swapping mid-traffic would corrupt the count
  load_ = std::move(shared);
}

void ServiceBroker::share_flights(std::shared_ptr<FlightTable> shared) {
  assert(shared != nullptr);
  assert(flights_.empty());  // swapping mid-traffic would strand claims
  flight_table_ = std::move(shared);
}

double ServiceBroker::compute_deadline(double now, uint32_t deadline_ms) const {
  const LifecycleConfig& lc = config_.lifecycle;
  double budget = deadline_ms > 0 ? static_cast<double>(deadline_ms) / 1000.0
                                  : lc.default_deadline;
  if (budget <= 0.0) return kNoDeadline;
  if (lc.max_deadline > 0.0) budget = std::min(budget, lc.max_deadline);
  return now + budget;
}

void ServiceBroker::submit(double now, const http::BrokerRequest& request,
                           ReplyFn reply) {
  // The same probe as every other caller's. The scratch arena is this call's
  // own, so a submit made from inside the hit reply probes into another.
  std::unique_ptr<Arena> scratch = arena_pool_.acquire();
  bool served = try_submit_fast(now, request, *scratch, [&reply](const ReplyView& r) {
    reply(http::BrokerReply{r.request_id, r.fidelity, std::string(r.payload)});
  });
  arena_pool_.release(std::move(scratch));
  if (!served) submit_miss(now, request, std::move(reply));
}

bool ServiceBroker::try_submit_fast(double now, const http::BrokerRequest& request,
                                    Arena& scratch, ReplyViewFn reply) {
  // 1. Result cache. lookup_into() classifies the probe: fresh hits and
  //    grace-window stale values answer immediately (the one caller that won
  //    the refresh claim also kicks off the background revalidation), cached
  //    backend errors answer as errors, and only a true miss falls through
  //    to submit_miss().
  if (!config_.enable_cache) return false;
  LookupView looked = cache_->lookup_into(request.payload, now, scratch);
  if (looked.outcome == LookupOutcome::kMiss) return false;

  QosLevel base_level = config_.rules.clamp_level(request.qos_level);
  auto& c = metrics_.at(base_level);
  c.issued += 1;
  // Side-effect parity with submit_miss(): transaction progress advances even
  // for cache-answered steps (escalation must see step N served from cache).
  txn_->effective_level(request.txn_id, request.txn_step, base_level, now);
  c.completed += 1;
  obs_.record(base_level, obs::Stage::kTotal, 0.0);
  if (looked.outcome == LookupOutcome::kNegative) {
    c.errors += 1;
    metrics_.flight.negative_hits += 1;
    obs_.trace(now, request.request_id, obs::TraceEventKind::kCacheHit,
               static_cast<uint8_t>(base_level), /*detail: negative=*/2);
    reply(ReplyView{request.request_id, http::Fidelity::kError, looked.value});
    return true;
  }
  c.cache_hits += 1;
  if (looked.outcome != LookupOutcome::kHit) {
    metrics_.flight.swr_hits += 1;
    obs_.trace(now, request.request_id, obs::TraceEventKind::kSwr,
               static_cast<uint8_t>(base_level),
               looked.outcome == LookupOutcome::kStaleRefresh ? 1 : 0);
  }
  obs_.trace(now, request.request_id, obs::TraceEventKind::kCacheHit,
             static_cast<uint8_t>(base_level));
  reply(ReplyView{request.request_id, http::Fidelity::kCached, looked.value});
  if (looked.outcome == LookupOutcome::kStaleRefresh) {
    issue_refresh(request.payload, now);
  }
  return true;
}

void ServiceBroker::submit_miss(double now, const http::BrokerRequest& request,
                                ReplyFn reply) {
  QosLevel base_level = config_.rules.clamp_level(request.qos_level);
  metrics_.at(base_level).issued += 1;
  QosLevel effective =
      txn_->effective_level(request.txn_id, request.txn_step, base_level, now);

  // 2. Admission, against the (possibly cross-shard) outstanding count —
  //    floored by the federation's gossiped tier pressure when installed.
  double admission_load = load_->load();
  if (tier_load_) admission_load = std::max(admission_load, tier_load_());
  AdmissionDecision decision = admission_.decide(effective, admission_load);
  if (decision != AdmissionDecision::kForward) {
    reply_drop(now, request, base_level, reply);
    return;
  }

  if (backends_.empty()) {
    auto& c = metrics_.at(base_level);
    c.errors += 1;
    c.completed += 1;
    obs_.record(base_level, obs::Stage::kTotal, 0.0);
    obs_.trace(now, request.request_id, obs::TraceEventKind::kComplete,
               static_cast<uint8_t>(base_level),
               static_cast<uint16_t>(http::Fidelity::kError));
    reply(http::BrokerReply{request.request_id, http::Fidelity::kError,
                            "no backend registered"});
    return;
  }

  // 3. Forward path: degrade the query if the fidelity rules say so, then
  //    open the request's lifecycle context and feed the cluster engine.
  RewriteOutcome rewritten =
      rewriter_.apply(request.payload, effective, hotspot_.state());
  ++outstanding_;
  load_->inc();
  hotspot_.observe(load_->load());

  // The context and its canonical payload bytes share one pooled arena,
  // freed in a single step by the exactly-once terminal (destroy_context).
  std::unique_ptr<Arena> arena = arena_pool_.acquire();
  RequestContext* ctx = arena->create<RequestContext>();
  ctx->arena = arena.release();
  ctx->id = request.request_id;
  ctx->base_level = base_level;
  ctx->effective_level = effective;
  ctx->submitted_at = now;
  ctx->deadline = compute_deadline(now, request.deadline_ms);
  ctx->attempt_budget = std::max(1, config_.lifecycle.max_attempts);
  ctx->payload = ctx->arena->store(rewritten.payload);
  ctx->degraded = rewritten.degraded;
  ctx->reply = std::move(reply);
  if (ctx->deadline != kNoDeadline) {
    deadlines_.emplace(ctx->deadline, ctx->id);
    // Track the budget in force so the overload controller can derive its
    // latency target from what the traffic actually demands.
    double budget = ctx->deadline - now;
    deadline_budget_ewma_ = deadline_budget_ewma_ > 0.0
                                ? 0.9 * deadline_budget_ewma_ + 0.1 * budget
                                : budget;
  }
  contexts_[request.request_id] = ctx;
  obs_.trace(now, request.request_id, obs::TraceEventKind::kAdmit,
             static_cast<uint8_t>(base_level), static_cast<uint16_t>(effective));

  // 4. Single-flight coalescing, keyed by the canonical (post-rewrite)
  //    query. The first miss leads the one backend fetch; identical misses
  //    arriving before it resolves park as waiters and are answered from its
  //    completion, each still subject to its own deadline. When another
  //    shard already owns the fetch (shared FlightTable), this request parks
  //    under a leaderless local flight and the resolution arrives through
  //    drain_flight_wakeups().
  if (single_flight_enabled()) {
    std::string_view key = ctx->payload;
    auto fit = flights_.find(key);
    if (fit == flights_.end() && !claim_flight(key)) {
      Flight flight;
      flight.owner = false;
      fit = flights_.emplace(key, std::move(flight)).first;
    }
    if (fit != flights_.end()) {
      fit->second.waiters.push_back(request.request_id);
      metrics_.flight.coalesced_waiters += 1;
      obs_.trace(now, request.request_id, obs::TraceEventKind::kCoalesce,
                 static_cast<uint8_t>(base_level),
                 static_cast<uint16_t>(
                     std::min<size_t>(fit->second.waiters.size(), UINT16_MAX)));
      return;
    }
    Flight flight;
    flight.leader = request.request_id;
    flight.owner = true;
    flights_.emplace(key, std::move(flight));
  }

  if (auto batch = cluster_.add(request.request_id, std::move(rewritten.payload), now)) {
    enqueue_batch(std::move(*batch), now);
  }
  pump(now);
}

void ServiceBroker::reply_drop(double now, const http::BrokerRequest& request,
                               QosLevel base_level, ReplyFn& reply) {
  auto& c = metrics_.at(base_level);
  c.dropped += 1;
  c.completed += 1;
  obs_.record(base_level, obs::Stage::kTotal, 0.0);
  obs_.trace(now, request.request_id, obs::TraceEventKind::kDrop,
             static_cast<uint8_t>(base_level), /*detail=*/1);
  if (config_.serve_stale_on_drop) {
    if (auto stale = cache_->get_stale(request.payload)) {
      reply(http::BrokerReply{request.request_id, http::Fidelity::kCached, *stale});
      return;
    }
  }
  reply(http::BrokerReply{request.request_id, http::Fidelity::kBusy,
                          "system is busy"});
  (void)now;
}

void ServiceBroker::enqueue_batch(Batch batch, double now) {
  ReadyBatch ready;
  ready.priority = 1;
  uint16_t size = static_cast<uint16_t>(
      std::min<size_t>(batch.member_ids.size(), UINT16_MAX));
  for (uint64_t id : batch.member_ids) {
    auto it = contexts_.find(id);
    if (it != contexts_.end()) {
      RequestContext& ctx = *it->second;
      ready.priority = std::max(ready.priority, ctx.effective_level);
      ctx.batched_at = now;
      obs_.record(ctx.base_level, obs::Stage::kBatchWait, now - ctx.submitted_at);
      obs_.trace(now, id, obs::TraceEventKind::kCluster,
                 static_cast<uint8_t>(ctx.base_level), size);
    }
  }
  ready.batch = std::move(batch);
  dispatch_queue_.push(ready.priority, std::move(ready));
}

void ServiceBroker::pump(double now) {
  while (!dispatch_queue_.empty() &&
         (config_.dispatch_window == 0 || in_flight_batches_ < config_.dispatch_window)) {
    auto next = dispatch_queue_.pop();
    assert(next.has_value());
    dispatch(std::move(*next), now);
  }
}

void ServiceBroker::dispatch(ReadyBatch ready, double now) {
  // Members can expire (deadline shed) between batching and dispatch; they
  // already received their reply. The exchange carries only what is left.
  size_t live = 0;
  double longest_remaining = 0.0;
  bool unbounded = false;
  for (uint64_t id : ready.batch.member_ids) {
    auto it = contexts_.find(id);
    if (it == contexts_.end()) continue;
    ++live;
    double remaining = it->second->remaining(now);
    if (remaining == kNoDeadline) {
      unbounded = true;
    } else {
      longest_remaining = std::max(longest_remaining, remaining);
    }
  }
  if (live == 0) return;

  bool probe = false;
  auto backend_index = balancer_.pick(now, ready.avoid, &probe);
  assert(backend_index.has_value());  // add_backend checked in submit

  ConnectionPool::Lease lease = pool_.acquire();
  if (!lease.granted) {
    // Every connection is saturated: degrade the whole batch.
    balancer_.complete(*backend_index);
    if (probe) balancer_.abandon_probe(*backend_index);
    for (size_t i = 0; i < ready.batch.member_ids.size(); ++i) {
      uint64_t id = ready.batch.member_ids[i];
      auto it = contexts_.find(id);
      if (it == contexts_.end()) continue;
      RequestContext* ctx = it->second;
      contexts_.erase(it);
      // Mirror the admission-drop bookkeeping: the request was admitted but
      // cannot be carried, so it is shed with low fidelity.
      shed_context(ctx, now, /*deadline_miss=*/false);
      // A shed flight leader hands its key to a waiter (who re-enters the
      // dispatch queue and, while the pool stays saturated, is shed in turn
      // until the waiter list drains — the loop terminates).
      if (single_flight_enabled()) {
        settle_abandoned_flight(ready.batch.member_payloads[i], id, now);
      }
    }
    return;
  }

  ++in_flight_batches_;
  if (probe) ++metrics_.lifecycle.probes;
  uint64_t exchange_id = next_exchange_++;

  Backend::Call call;
  call.payload = ready.batch.combined_payload;
  call.needs_connection_setup = lease.fresh;
  // The exchange stays useful as long as its longest-lived member does;
  // shorter members expire individually out of the broker's deadline queue.
  // The slack keeps the transport's own timer strictly behind the broker's
  // deadline expiry, so the deadline path always claims the completion.
  call.timeout = unbounded
                     ? 0.0
                     : longest_remaining + config_.lifecycle.transport_slack;

  Exchange exchange;
  exchange.backend = *backend_index;
  exchange.connection = lease.connection;
  exchange.unfinished = live;
  exchange.dispatched_at = now;
  exchange.cancel = std::make_shared<CancelToken>();
  for (uint64_t id : ready.batch.member_ids) {
    auto it = contexts_.find(id);
    if (it == contexts_.end()) continue;
    RequestContext& ctx = *it->second;
    if (ctx.attempts == 0) {
      // QoS-queue residency: batch formation to first dispatch. Retries skip
      // this — their wait mixes in the failed attempt's channel time.
      double queued_since = ctx.batched_at > 0.0 ? ctx.batched_at : ctx.submitted_at;
      obs_.record(ctx.base_level, obs::Stage::kQueueWait, now - queued_since);
    }
    obs_.trace(now, id, obs::TraceEventKind::kDispatch,
               static_cast<uint8_t>(ctx.base_level),
               static_cast<uint16_t>(*backend_index));
    ctx.exchange = exchange_id;
    ctx.attempts += 1;
    ctx.dispatched_at = now;
    ctx.last_backend = *backend_index;
  }
  CancelTokenPtr token = exchange.cancel;
  exchange.batch = std::move(ready.batch);
  exchanges_.emplace(exchange_id, std::move(exchange));

  std::shared_ptr<Backend> backend = backends_[*backend_index];
  backend->invoke(call, token,
                  [this, exchange_id](double done_now, bool ok,
                                      const std::string& payload) {
                    on_exchange_complete(exchange_id, done_now, ok, payload);
                  });
}

void ServiceBroker::on_exchange_complete(uint64_t exchange_id, double now, bool ok,
                                         const std::string& payload) {
  auto it = exchanges_.find(exchange_id);
  if (it == exchanges_.end()) {
    // The deadline queue already harvested this exchange: every member was
    // answered and accounting settled, so the late result only gets counted.
    ++metrics_.lifecycle.late_completions;
    return;
  }
  Exchange exchange = std::move(it->second);
  exchanges_.erase(it);
  pool_.release(exchange.connection);
  balancer_.complete(exchange.backend);
  report_health(exchange.backend, ok, now, now - exchange.dispatched_at);
  assert(in_flight_batches_ > 0);
  --in_flight_batches_;

  const Batch& batch = exchange.batch;
  if (ok) {
    std::vector<std::string> parts = ClusterEngine::split_reply(batch, payload);
    for (size_t i = 0; i < batch.member_ids.size(); ++i) {
      // Cache before replying: once the reply is on the wire, another shard
      // may already be looking the repeat up in the shared cache. A fresh
      // result is worth caching even when its member already expired.
      if (config_.enable_cache) cache_->put(batch.member_payloads[i], parts[i], now);
      uint64_t id = batch.member_ids[i];
      auto ctx_it = contexts_.find(id);
      if (ctx_it != contexts_.end() && ctx_it->second->exchange == exchange_id) {
        RequestContext* ctx = ctx_it->second;
        contexts_.erase(ctx_it);
        obs_.record(ctx->base_level, obs::Stage::kChannelRtt,
                    now - ctx->dispatched_at);
        finish_context(ctx, now, http::Fidelity::kFull, parts[i],
                       /*count_error=*/false);
      }
      // Put, then resolve: parked shards woken by the FlightTable re-probe
      // the shared cache and must find the value. Resolving by key alone is
      // deliberate — any fresh result for the key answers its waiters, even
      // when the member itself already expired.
      if (single_flight_enabled()) {
        resolve_flight(batch.member_payloads[i], now, /*ok=*/true, parts[i]);
      }
    }
  } else {
    bool scheduled_retry = false;
    for (size_t i = 0; i < batch.member_ids.size(); ++i) {
      uint64_t id = batch.member_ids[i];
      const std::string& key = batch.member_payloads[i];
      auto ctx_it = contexts_.find(id);
      if (ctx_it == contexts_.end() || ctx_it->second->exchange != exchange_id) {
        // The member expired (or moved on) mid-exchange; its fetch chain
        // ends here, so a flight it still leads must be re-led or dropped.
        if (single_flight_enabled()) settle_abandoned_flight(key, id, now);
        continue;
      }
      RequestContext& ctx = *ctx_it->second;
      ctx.exchange = 0;
      obs_.record(ctx.base_level, obs::Stage::kChannelRtt, now - ctx.dispatched_at);
      if (may_retry(ctx, now)) {
        // The flight (if any) stays with this member: its chain continues.
        retries_.emplace(now + config_.lifecycle.retry_backoff * ctx.attempts, id);
        metrics_.at(ctx.base_level).retries += 1;
        obs_.trace(now, id, obs::TraceEventKind::kRetry,
                   static_cast<uint8_t>(ctx.base_level),
                   static_cast<uint16_t>(ctx.attempts));
        scheduled_retry = true;
      } else {
        RequestContext* moved = ctx_it->second;
        contexts_.erase(ctx_it);
        // Publish the failure (a no-op over a resident positive entry and
        // when negative caching is off), then fail the waiters. The error
        // resolve is guarded by leader identity so an unrelated chain's
        // failure cannot error-out a healthier flight.
        if (config_.enable_cache) cache_->put_negative(key, payload, now);
        if (single_flight_enabled()) {
          auto fit = flights_.find(key);
          if (fit != flights_.end() && fit->second.leader == id) {
            resolve_flight(key, now, /*ok=*/false, payload);
          }
        }
        finish_context(moved, now, http::Fidelity::kError, payload,
                       /*count_error=*/true);
      }
    }
    if (scheduled_retry) {
      drain_retries(now);  // zero-backoff configs re-dispatch immediately
      if (wakeup_) wakeup_();
    }
  }
  pump(now);
}

void ServiceBroker::destroy_context(RequestContext* ctx) {
  std::unique_ptr<Arena> arena(ctx->arena);
  ctx->~RequestContext();  // the arena doesn't run destructors
  arena_pool_.release(std::move(arena));
}

void ServiceBroker::finish_context(RequestContext* ctx, double now,
                                   http::Fidelity fidelity,
                                   std::string_view payload, bool count_error) {
  assert(outstanding_ > 0);
  --outstanding_;
  load_->dec();
  hotspot_.observe(load_->load());

  if (ctx->degraded && fidelity == http::Fidelity::kFull) {
    fidelity = http::Fidelity::kDegraded;
  }
  auto& c = metrics_.at(ctx->base_level);
  if (fidelity == http::Fidelity::kFull || fidelity == http::Fidelity::kCached ||
      fidelity == http::Fidelity::kDegraded) {
    c.forwarded += 1;
  }
  if (count_error) c.errors += 1;
  c.completed += 1;
  obs_.record(ctx->base_level, obs::Stage::kTotal, now - ctx->submitted_at);
  obs_.trace(now, ctx->id, obs::TraceEventKind::kComplete,
             static_cast<uint8_t>(ctx->base_level),
             static_cast<uint16_t>(fidelity));
  ctx->reply(http::BrokerReply{ctx->id, fidelity, std::string(payload)});
  destroy_context(ctx);
}

void ServiceBroker::shed_context(RequestContext* ctx, double now, bool deadline_miss) {
  assert(outstanding_ > 0);
  --outstanding_;
  load_->dec();
  hotspot_.observe(load_->load());

  auto& c = metrics_.at(ctx->base_level);
  c.dropped += 1;
  if (deadline_miss) {
    c.deadline_misses += 1;
    // Under LIFO discipline the aged-out entries shed here *are* the queue
    // tail the discipline sacrificed; count them so the win is observable.
    if (admission_.overload().lifo_active()) c.lifo_sheds += 1;
  }
  c.completed += 1;
  obs_.record(ctx->base_level, obs::Stage::kTotal, now - ctx->submitted_at);
  obs_.trace(now, ctx->id,
             deadline_miss ? obs::TraceEventKind::kDeadline
                           : obs::TraceEventKind::kDrop,
             static_cast<uint8_t>(ctx->base_level),
             deadline_miss ? static_cast<uint16_t>(ctx->attempts)
                           : /*pool saturated=*/static_cast<uint16_t>(2));
  if (config_.serve_stale_on_drop) {
    if (auto stale = cache_->get_stale(ctx->payload)) {
      ctx->reply(http::BrokerReply{ctx->id, http::Fidelity::kCached, *stale});
      destroy_context(ctx);
      return;
    }
  }
  ctx->reply(http::BrokerReply{
      ctx->id, http::Fidelity::kBusy,
      deadline_miss ? std::string(kDeadlineExceeded) : "system is busy"});
  destroy_context(ctx);
}

bool ServiceBroker::may_retry(const RequestContext& ctx, double now) const {
  if (ctx.attempts >= ctx.attempt_budget) return false;
  double ready_at = now + config_.lifecycle.retry_backoff * ctx.attempts;
  return ctx.deadline == kNoDeadline || ready_at < ctx.deadline;
}

void ServiceBroker::expire_deadlines(double now) {
  while (!deadlines_.empty() && deadlines_.top().first <= now) {
    uint64_t id = deadlines_.top().second;
    deadlines_.pop();
    auto it = contexts_.find(id);
    // Skip lazily-deleted entries (request already answered) and entries
    // stale against a later re-submitted deadline for the same id.
    if (it == contexts_.end() || !it->second->expired(now)) continue;
    uint64_t exchange_id = it->second->exchange;
    RequestContext* ctx = it->second;
    contexts_.erase(it);
    if (single_flight_enabled()) {
      auto fit = flights_.find(ctx->payload);
      if (fit != flights_.end()) {
        if (fit->second.leader != ctx->id) {
          // An expiring waiter detaches; the fetch it was parked on
          // continues for whoever remains.
          auto& w = fit->second.waiters;
          w.erase(std::remove(w.begin(), w.end(), ctx->id), w.end());
          if (w.empty() && fit->second.leader == 0 && !fit->second.owner) {
            flights_.erase(fit);  // parked on a remote fetch, nobody left
          }
        } else if (exchange_id == 0) {
          // The leader died with no live fetch chain (pre-dispatch, or
          // parked for a retry slot that now never fires): promote a waiter
          // or drop the flight. A leader with a live exchange keeps it —
          // the completion or the harvest settles the flight.
          settle_abandoned_flight(ctx->payload, ctx->id, now);
        }
      }
    }
    shed_context(ctx, now, /*deadline_miss=*/true);
    if (exchange_id != 0) {
      auto ex_it = exchanges_.find(exchange_id);
      if (ex_it != exchanges_.end()) {
        assert(ex_it->second.unfinished > 0);
        if (--ex_it->second.unfinished == 0) harvest_exchange(exchange_id, now);
      }
    }
  }
}

void ServiceBroker::harvest_exchange(uint64_t exchange_id, double now) {
  auto it = exchanges_.find(exchange_id);
  if (it == exchanges_.end()) return;
  Exchange exchange = std::move(it->second);
  // Erase before firing the token: a backend that completes re-entrantly
  // from its cancel path must find the accounting already settled.
  exchanges_.erase(it);
  pool_.release(exchange.connection);
  balancer_.complete(exchange.backend);
  // A stall the broker had to abandon is a failure signal for the replica.
  report_health(exchange.backend, /*ok=*/false, now);
  assert(in_flight_batches_ > 0);
  --in_flight_batches_;
  ++metrics_.lifecycle.cancellations;
  exchange.cancel->cancel();
  // Every member's fetch chain ended without a completion; flights they
  // still lead are re-led or dropped. (A late completion finds the exchange
  // record gone and returns before touching flights.)
  if (single_flight_enabled()) {
    for (size_t i = 0; i < exchange.batch.member_ids.size(); ++i) {
      settle_abandoned_flight(exchange.batch.member_payloads[i],
                              exchange.batch.member_ids[i], now);
    }
  }
}

void ServiceBroker::report_health(size_t backend, bool ok, double now,
                                  double latency) {
  switch (balancer_.report(backend, ok, now, latency)) {
    case ReplicaEvent::kEjected:
      ++metrics_.lifecycle.ejections;
      break;
    case ReplicaEvent::kRecovered:
      ++metrics_.lifecycle.recoveries;
      break;
    case ReplicaEvent::kNone:
      break;
  }
}

void ServiceBroker::drain_retries(double now) {
  while (!retries_.empty() && retries_.top().first <= now) {
    uint64_t id = retries_.top().second;
    retries_.pop();
    auto it = contexts_.find(id);
    // Valid only for a context that has consumed an attempt and is not in
    // flight — anything else is a lazily-deleted entry.
    if (it == contexts_.end() || it->second->exchange != 0 ||
        it->second->attempts == 0) {
      continue;
    }
    const RequestContext& ctx = *it->second;
    ReadyBatch ready;
    ready.batch.member_ids = {id};
    ready.batch.member_payloads = {std::string(ctx.payload)};
    ready.batch.combined_payload = std::string(ctx.payload);
    ready.priority = ctx.effective_level;
    ready.avoid = ctx.last_backend;
    dispatch_queue_.push(ready.priority, std::move(ready));
  }
}

void ServiceBroker::tick(double now) {
  ++ticks_;
  evaluate_overload(now);
  if (auto batch = cluster_.flush(now)) {
    enqueue_batch(std::move(*batch), now);
  }
  drain_flight_wakeups(now);
  expire_deadlines(now);
  drain_retries(now);
  pump(now);
  txn_->expire(now);

  if (!backends_.empty()) {
    for (const PrefetchEntry& entry :
         prefetcher_.due(now, static_cast<double>(outstanding_),
                         config_.prefetch_burst)) {
      issue_prefetch(entry, now);
    }
  }
}

void ServiceBroker::evaluate_overload(double now) {
  OverloadController& ctl = admission_.overload();
  // Static-without-lifo never reads the signal.
  if (!ctl.wants_feedback()) return;
  if (now < next_overload_eval_) return;
  next_overload_eval_ = now + config_.overload.eval_interval;

  obs::LatencyHistogram total = obs_.merged_histogram(obs::Stage::kTotal);
  obs::LatencyHistogram queue = obs_.merged_histogram(obs::Stage::kQueueWait);
  // Sub-microsecond kTotal records are admission drops and cache hits; the
  // controller must judge the requests that did real work, so exclude the
  // [0,1us) bucket from the interval view.
  constexpr double kMinSignal = 1e-6;
  OverloadSignal signal;
  signal.samples = std::max(total.count_since(overload_total_base_, kMinSignal),
                            queue.count_since(overload_queue_base_, kMinSignal));
  signal.p95 =
      std::max(total.quantile_since(overload_total_base_, 0.95, kMinSignal),
               queue.quantile_since(overload_queue_base_, 0.95, kMinSignal));
  signal.budget = deadline_budget_ewma_;

  bool was_overloaded = ctl.overloaded();
  bool was_lifo = ctl.lifo_active();
  ctl.observe(signal, now);
  overload_total_base_ = std::move(total);
  overload_queue_base_ = std::move(queue);
  metrics_.overload = ctl.stats();

  if (ctl.overloaded() != was_overloaded) {
    obs_.trace(now, /*request_id=*/0, obs::TraceEventKind::kOverload,
               static_cast<uint8_t>(std::min(ctl.threshold(), 255.0)),
               ctl.overloaded() ? 1 : 0);
  }
  if (ctl.lifo_active() != was_lifo) {
    dispatch_queue_.set_lifo(ctl.lifo_active());
  }
}

void ServiceBroker::issue_prefetch(const PrefetchEntry& entry, double now) {
  // A prefetch is just a speculative flight: it registers in the
  // single-flight machinery so a demand miss arriving while it is on the
  // wire parks as a waiter instead of duplicating the fetch — and so two
  // shards never prefetch the same key at once.
  bool track = single_flight_enabled();
  if (track && flights_.count(entry.cache_key)) return;
  if (track && !claim_flight(entry.cache_key)) return;
  auto backend_index = balancer_.pick(now);
  if (!backend_index) {
    if (track) flight_table_->resolve(entry.cache_key);
    return;
  }
  ConnectionPool::Lease lease = pool_.acquire();
  if (!lease.granted) {
    balancer_.complete(*backend_index);
    if (track) flight_table_->resolve(entry.cache_key);
    return;  // pool saturated — skip this cycle, the schedule already advanced
  }
  if (track) {
    Flight flight;  // leaderless: no request context carries this fetch
    flight.owner = true;
    flights_.emplace(entry.cache_key, std::move(flight));
  }
  Backend::Call call{entry.payload, lease.fresh};
  std::shared_ptr<Backend> backend = backends_[*backend_index];
  size_t backend_idx = *backend_index;
  size_t connection = lease.connection;
  std::string cache_key = entry.cache_key;
  double issued_at = now;
  backend->invoke(call, [this, backend_idx, connection, cache_key, issued_at,
                         track](double done_now, bool ok,
                                const std::string& payload) {
    pool_.release(connection);
    balancer_.complete(backend_idx);
    if (ok) {
      // Stamp with the issue time, not the completion time: a demand fetch
      // that completed while this prefetch was on the wire stored a newer
      // result, and the cache's last-write-wins rule must keep it.
      cache_->put(cache_key, payload, issued_at);
      if (track) resolve_flight(cache_key, done_now, /*ok=*/true, payload);
    } else if (track) {
      // Speculative work does not poison the negative cache; just fail any
      // demand waiters that attached while the prefetch was out.
      resolve_flight(cache_key, done_now, /*ok=*/false, payload);
    }
  });
}

void ServiceBroker::issue_refresh(std::string_view key, double now) {
  if (backends_.empty()) return;
  bool track = single_flight_enabled();
  // A live flight for the key already carries a fetch that will land a
  // fresher value; a second revalidation would be the stampede this layer
  // exists to prevent.
  if (track && flights_.count(key)) return;
  if (track && !claim_flight(key)) return;  // another shard is refreshing
  auto backend_index = balancer_.pick(now);
  if (!backend_index) {
    if (track) flight_table_->resolve(std::string(key));
    return;
  }
  ConnectionPool::Lease lease = pool_.acquire();
  if (!lease.granted) {
    balancer_.complete(*backend_index);
    if (track) flight_table_->resolve(std::string(key));
    return;
  }
  if (track) {
    Flight flight;  // leaderless background fetch, like a prefetch
    flight.owner = true;
    flights_.emplace(key, std::move(flight));
  }
  metrics_.flight.refreshes += 1;
  Backend::Call call{std::string(key), lease.fresh};
  // Background refreshes carry no request deadline; the transport timeout is
  // the only bound on the exchange.
  call.timeout = config_.refresh_timeout;
  std::shared_ptr<Backend> backend = backends_[*backend_index];
  size_t backend_idx = *backend_index;
  size_t connection = lease.connection;
  std::string cache_key(key);
  backend->invoke(call, [this, backend_idx, connection, cache_key, track](
                            double done_now, bool ok, const std::string& payload) {
    pool_.release(connection);
    balancer_.complete(backend_idx);
    if (ok) {
      cache_->put(cache_key, payload, done_now);
      if (track) resolve_flight(cache_key, done_now, /*ok=*/true, payload);
    } else {
      // The stale value stays servable: put_negative never overwrites a
      // resident positive entry, and the entry's refresh claim self-heals
      // one grace window after it was taken.
      cache_->put_negative(cache_key, payload, done_now);
      if (track) resolve_flight(cache_key, done_now, /*ok=*/false, payload);
    }
  });
}

bool ServiceBroker::claim_flight(std::string_view key) {
  return flight_table_->claim(std::string(key), [this](const std::string& resolved) {
    // Runs on the resolving shard's thread: enqueue and poke, nothing else.
    {
      std::lock_guard<std::mutex> lock(flight_wakeup_mu_);
      flight_wakeups_.push_back(resolved);
    }
    flight_wakeups_pending_.store(true, std::memory_order_release);
    if (flight_notifier_) flight_notifier_();
  });
}

void ServiceBroker::resolve_flight(std::string_view key, double now, bool ok,
                                   std::string_view payload) {
  auto fit = flights_.find(key);
  if (fit == flights_.end()) return;
  Flight flight = std::move(fit->second);
  flights_.erase(fit);
  for (uint64_t id : flight.waiters) {
    auto it = contexts_.find(id);
    if (it == contexts_.end()) continue;  // waiter already shed on deadline
    RequestContext* ctx = it->second;
    contexts_.erase(it);
    finish_context(ctx, now,
                   ok ? http::Fidelity::kCached : http::Fidelity::kError,
                   payload, /*count_error=*/!ok);
  }
  // Release the cross-shard claim last: parked shards re-probe the cache on
  // wake-up, and the value (or negative entry) is already published.
  if (flight.owner) flight_table_->resolve(std::string(key));
}

void ServiceBroker::settle_abandoned_flight(std::string_view key,
                                            uint64_t member_id, double now) {
  auto fit = flights_.find(key);
  if (fit == flights_.end() || fit->second.leader != member_id) return;
  if (contexts_.count(member_id)) return;  // chain still alive (retry pending)
  promote_or_drop(key, now);
}

void ServiceBroker::promote_or_drop(std::string_view key, double now) {
  auto fit = flights_.find(key);
  if (fit == flights_.end()) return;
  Flight& flight = fit->second;
  auto& waiters = flight.waiters;
  waiters.erase(std::remove_if(waiters.begin(), waiters.end(),
                               [this](uint64_t id) {
                                 return contexts_.find(id) == contexts_.end();
                               }),
                waiters.end());
  if (waiters.empty()) {
    bool owner = flight.owner;
    flights_.erase(fit);
    if (owner) flight_table_->resolve(std::string(key));
    return;
  }
  if (!flight.owner) {
    // Try to take over the cross-shard claim; if another shard still holds
    // it, stay parked — its resolution (or death) wakes us again.
    if (!claim_flight(key)) {
      flight.leader = 0;
      return;
    }
    flight.owner = true;
  }
  uint64_t next_leader = waiters.front();
  waiters.erase(waiters.begin());
  flight.leader = next_leader;
  metrics_.flight.promotions += 1;
  // Re-enter the dispatch path as a single-member batch, exactly like a
  // retry; every caller reaches pump() before returning to the event loop.
  const RequestContext& ctx = *contexts_.at(next_leader);
  ReadyBatch ready;
  ready.batch.member_ids = {next_leader};
  ready.batch.member_payloads = {std::string(ctx.payload)};
  ready.batch.combined_payload = std::string(ctx.payload);
  ready.priority = ctx.effective_level;
  dispatch_queue_.push(ready.priority, std::move(ready));
  (void)now;
}

void ServiceBroker::drain_flight_wakeups(double now) {
  if (!flight_wakeups_pending_.load(std::memory_order_acquire)) return;
  std::vector<std::string> keys;
  {
    std::lock_guard<std::mutex> lock(flight_wakeup_mu_);
    keys.swap(flight_wakeups_);
    flight_wakeups_pending_.store(false, std::memory_order_relaxed);
  }
  std::unique_ptr<Arena> scratch = arena_pool_.acquire();
  for (const std::string& key : keys) {
    auto fit = flights_.find(key);
    // Only leaderless, unowned flights are waiting on a remote resolution;
    // anything else was settled (or re-claimed) locally in the meantime.
    if (fit == flights_.end() || fit->second.owner || fit->second.leader != 0) {
      continue;
    }
    scratch->reset();
    LookupView looked = cache_->lookup_into(key, now, *scratch);
    switch (looked.outcome) {
      case LookupOutcome::kHit:
      case LookupOutcome::kStaleServe:
      case LookupOutcome::kStaleRefresh:
        resolve_flight(key, now, /*ok=*/true, looked.value);
        if (looked.outcome == LookupOutcome::kStaleRefresh) {
          issue_refresh(key, now);
        }
        break;
      case LookupOutcome::kNegative:
        resolve_flight(key, now, /*ok=*/false, looked.value);
        break;
      case LookupOutcome::kMiss:
        // The remote fetch died without publishing anything: promote a
        // local waiter to lead a fresh fetch (re-claiming the table entry).
        promote_or_drop(key, now);
        break;
    }
  }
  arena_pool_.release(std::move(scratch));
}

ChannelStats ServiceBroker::channel_stats() const {
  ChannelStats total;
  for (const auto& backend : backends_) total.merge(backend->channel_stats());
  return total;
}

std::optional<double> ServiceBroker::next_deadline() const {
  std::optional<double> next = cluster_.next_deadline();
  auto fold = [&next](std::optional<double> t) {
    if (t && (!next || *t < *next)) next = t;
  };
  // Fold the prefetch schedule only while the broker is idle enough to
  // actually issue prefetches: Prefetcher::due() refuses to fire above the
  // idle threshold, so arming a timer for an overdue entry while busy makes
  // every tick re-arm at `now` — a zero-delay wakeup spin that pins the
  // owner's event loop until load drains.
  if (static_cast<double>(outstanding_) <= config_.prefetch_idle_threshold) {
    fold(prefetcher_.next_due());
  }
  // Fold the overload-feedback cadence only while requests are in flight:
  // an idle broker has nothing to measure, and folding unconditionally
  // would re-arm a discrete-event owner's timer forever (the sim would
  // never drain). An overload mode latched at drain time simply waits for
  // traffic to resume before its exit evaluations run.
  if (outstanding_ > 0 && admission_.overload().wants_feedback()) {
    fold(next_overload_eval_);
  }
  while (!deadlines_.empty() && !contexts_.count(deadlines_.top().second)) {
    deadlines_.pop();
  }
  if (!deadlines_.empty()) fold(deadlines_.top().first);
  while (!retries_.empty() && !contexts_.count(retries_.top().second)) {
    retries_.pop();
  }
  if (!retries_.empty()) fold(retries_.top().first);
  return next;
}

}  // namespace sbroker::core
