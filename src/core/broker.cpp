#include "core/broker.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "util/log.h"
#include "util/rng.h"

namespace sbroker::core {

ServiceBroker::ServiceBroker(std::string name, BrokerConfig config)
    : name_(std::move(name)),
      config_(config),
      overload_(config.rules, config.overload),
      cache_(std::make_shared<ResultCache>(
          config.cache_capacity, config.cache_ttl, /*stripes=*/1,
          config.cache_tuning, ttl_salt(config.rng_seed))),
      load_(std::make_shared<LoadTracker>()),
      cluster_(config.cluster),
      pool_(config.pool),
      balancer_(config.balance, util::Rng(config.rng_seed), config.health),
      txn_(std::make_shared<TransactionTracker>(config.rules, config.txn)),
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

void ServiceBroker::share_cache(std::shared_ptr<ResultCache> shared) {
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

double ServiceBroker::admission_load() const {
  double load = load_->load();
  return tier_load_ ? std::max(load, tier_load_()) : load;
}

bool ServiceBroker::background_admitted() const {
  return !backends_.empty() && overload_.admit(1, admission_load());
}

void ServiceBroker::submit(double now, const http::BrokerRequest& request,
                           ReplyFn reply) {
  // The same probe as every other caller's. The scratch arena is this call's
  // own, so a submit made from inside the hit reply probes into another.
  std::unique_ptr<Arena> scratch = arena_pool_.acquire();
  bool served = try_submit_fast(now, request, *scratch,
                                [&reply](const ReplyView& r) { reply(r.owned()); });
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
  metrics_.at(base_level).issued += 1;
  // Side-effect parity with submit_miss(): transaction progress advances even
  // for cache-answered steps (escalation must see step N served from cache).
  txn_->effective_level(request.txn_id, request.txn_step, base_level, now);
  Terminal t(request, base_level, Outcome::kHit, http::Fidelity::kCached,
             looked.value, now);
  if (looked.outcome == LookupOutcome::kNegative) {
    t.outcome = Outcome::kNegativeHit;
    t.fidelity = http::Fidelity::kError;
  } else if (looked.outcome != LookupOutcome::kHit) {
    metrics_.flight.swr_hits += 1;
    obs_.trace(now, request.request_id, obs::TraceEventKind::kSwr,
               static_cast<uint8_t>(base_level),
               looked.outcome == LookupOutcome::kStaleRefresh ? 1 : 0);
  }
  finish(t, now, reply);
  if (looked.outcome == LookupOutcome::kStaleRefresh &&
      submit_background(request.payload, now)) {
    metrics_.flight.refreshes += 1;
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
  auto sink = [&reply](const ReplyView& r) { reply(r.owned()); };
  if (!overload_.admit(effective, admission_load())) {
    finish(Terminal(request, base_level, Outcome::kAdmissionDrop,
                    http::Fidelity::kBusy, "system is busy", now),
           now, sink);
    return;
  }
  if (backends_.empty()) {
    finish(Terminal(request, base_level, Outcome::kNoBackend, http::Fidelity::kError,
                    "no backend registered", now),
           now, sink);
    return;
  }

  // 3. Forward path: degrade the query if the fidelity rules say so, then
  //    open the request's lifecycle context and feed the cluster engine.
  RewriteOutcome rewritten =
      rewriter_.apply(request.payload, effective, hotspot_.state());
  RequestContext init;
  init.request_id = request.request_id;
  init.base_level = base_level;
  init.effective_level = effective;
  init.deadline = compute_deadline(now, request.deadline_ms);
  init.degraded = rewritten.degraded;
  init.reply = std::move(reply);
  if (init.deadline != kNoDeadline) {
    // Track the budget in force so the overload controller can derive its
    // latency target from what the traffic actually demands.
    double budget = init.deadline - now;
    deadline_budget_ewma_ = deadline_budget_ewma_ > 0.0
                                ? 0.9 * deadline_budget_ewma_ + 0.1 * budget
                                : budget;
  }
  open_fetch(now, std::move(init), std::move(rewritten.payload));
}

bool ServiceBroker::submit_background(std::string_view payload, double now) {
  // A live flight for the key already carries a fetch that lands a fresher
  // value; a second one would be the stampede this layer exists to prevent.
  if (single_flight_enabled() && flights_.count(payload)) return false;
  metrics_.background.issued += 1;
  if (!background_admitted()) {
    metrics_.background.dropped += 1;
    return false;
  }
  RequestContext init;  // lowest class, no reply sink
  init.deadline = now + kBackgroundDeadline;
  init.background = true;
  open_fetch(now, std::move(init), std::string(payload));
  return true;
}

void ServiceBroker::open_fetch(double now, RequestContext init, std::string payload) {
  ++outstanding_;
  load_->inc();
  hotspot_.observe(load_->load());

  // The context and its canonical payload bytes share one pooled arena,
  // freed in a single step by the exactly-once terminal (end_context).
  std::unique_ptr<Arena> arena = arena_pool_.acquire();
  RequestContext* ctx = arena->create<RequestContext>(std::move(init));
  ctx->arena = arena.release();
  ctx->id = next_context_++;
  ctx->submitted_at = now;
  ctx->attempt_budget = std::max(1, config_.lifecycle.max_attempts);
  ctx->payload = ctx->arena->store(payload);
  if (ctx->deadline != kNoDeadline) deadlines_.emplace(ctx->deadline, ctx->id);
  contexts_[ctx->id] = ctx;
  obs_.trace(now, ctx->request_id, obs::TraceEventKind::kAdmit,
             static_cast<uint8_t>(ctx->base_level),
             static_cast<uint16_t>(ctx->effective_level));

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
      fit = flights_.emplace(key, Flight{}).first;
    }
    if (fit != flights_.end()) {
      fit->second.waiters.push_back(ctx->id);
      metrics_.flight.coalesced_waiters += 1;
      obs_.trace(now, ctx->request_id, obs::TraceEventKind::kCoalesce,
                 static_cast<uint8_t>(ctx->base_level),
                 static_cast<uint16_t>(
                     std::min<size_t>(fit->second.waiters.size(), UINT16_MAX)));
      return;
    }
    flights_.emplace(key, Flight{ctx->id, {}});
  }

  if (auto batch = cluster_.add(ctx->id, std::move(payload), now)) {
    enqueue_batch(std::move(*batch), now);
  }
  pump(now);
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
      obs_.trace(now, ctx.request_id, obs::TraceEventKind::kCluster,
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
      // Admitted but cannot be carried: shed with low fidelity.
      end_context(ctx, now, Outcome::kPoolShed, http::Fidelity::kBusy, "system is busy");
      // A shed flight leader hands its key to a waiter (who re-enters the
      // dispatch queue and, while the pool stays saturated, is shed in turn
      // until the waiter list drains — the loop terminates).
      if (single_flight_enabled()) {
        settle_abandoned_flight(ready.batch.member_payloads[i], id);
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
  call.timeout = unbounded ? 0.0 : longest_remaining + kTransportSlack;

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
    obs_.trace(now, ctx.request_id, obs::TraceEventKind::kDispatch,
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
      auto ctx_it = contexts_.find(batch.member_ids[i]);
      bool live = ctx_it != contexts_.end() && ctx_it->second->exchange == exchange_id;
      // Cache before replying: once the reply is on the wire, another shard
      // may already be looking the repeat up in the shared cache. A fresh
      // result is worth caching even when its member already expired. A
      // background write is stamped with its dispatch time: a demand fetch
      // that completed meanwhile stored a newer result, which must win.
      bool background = live && ctx_it->second->background;
      double stamp = background ? exchange.dispatched_at : now;
      if (config_.enable_cache) cache_->put(batch.member_payloads[i], parts[i], stamp);
      if (live) {
        RequestContext* ctx = ctx_it->second;
        contexts_.erase(ctx_it);
        obs_.record(ctx->base_level, obs::Stage::kChannelRtt,
                    now - ctx->dispatched_at);
        end_context(ctx, now, Outcome::kComplete, http::Fidelity::kFull, parts[i]);
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
        if (single_flight_enabled()) settle_abandoned_flight(key, id);
        continue;
      }
      RequestContext& ctx = *ctx_it->second;
      ctx.exchange = 0;
      obs_.record(ctx.base_level, obs::Stage::kChannelRtt, now - ctx.dispatched_at);
      if (may_retry(ctx, now)) {
        // The flight (if any) stays with this member: its chain continues.
        retries_.emplace(now + kRetryBackoff * ctx.attempts, id);
        if (!ctx.background) metrics_.at(ctx.base_level).retries += 1;
        obs_.trace(now, ctx.request_id, obs::TraceEventKind::kRetry,
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
        end_context(moved, now, Outcome::kError, http::Fidelity::kError, payload);
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

void ServiceBroker::finish(const Terminal& t, double now, ReplyViewFn reply) {
  ReplyView out{t.request_id, t.fidelity, t.payload};
  if (t.degraded && out.fidelity == http::Fidelity::kFull) {
    out.fidelity = http::Fidelity::kDegraded;
  }
  auto kind = obs::TraceEventKind::kComplete;
  auto detail = static_cast<uint16_t>(out.fidelity);
  switch (t.outcome) {
    case Outcome::kHit:
    case Outcome::kNegativeHit:
      kind = obs::TraceEventKind::kCacheHit;
      detail = t.outcome == Outcome::kHit ? 0 : 2;
      break;
    case Outcome::kAdmissionDrop:
    case Outcome::kPoolShed:
      kind = obs::TraceEventKind::kDrop;
      detail = t.outcome == Outcome::kAdmissionDrop ? 1 : 2;
      break;
    case Outcome::kDeadlineShed:
      kind = obs::TraceEventKind::kDeadline;
      detail = t.attempts;
      break;
    case Outcome::kNoBackend:
    case Outcome::kComplete:
    case Outcome::kError:
      break;
  }
  obs_.trace(now, t.request_id, kind, static_cast<uint8_t>(t.base_level), detail);
  if (t.background) {
    auto& bg = metrics_.background;
    (t.outcome == Outcome::kComplete ? bg.completed
     : t.outcome == Outcome::kError  ? bg.failed
                                     : bg.dropped) += 1;
    return;
  }

  auto& c = metrics_.at(t.base_level);
  c.completed += 1;
  switch (t.outcome) {
    case Outcome::kHit:
      c.cache_hits += 1;
      break;
    case Outcome::kNegativeHit:
      metrics_.flight.negative_hits += 1;
      [[fallthrough]];
    case Outcome::kNoBackend:
    case Outcome::kError:
      c.errors += 1;
      break;
    case Outcome::kComplete:
      c.forwarded += 1;
      break;
    case Outcome::kDeadlineShed:
      c.deadline_misses += 1;
      // Under LIFO discipline the aged-out entries shed here *are* the queue
      // tail the discipline sacrificed; count them so the win is observable.
      if (overload_.lifo_active()) c.lifo_sheds += 1;
      [[fallthrough]];
    case Outcome::kAdmissionDrop:
    case Outcome::kPoolShed:
      c.dropped += 1;
      break;
  }
  // A drop's low-fidelity reply: the stale copy when one is kept, else busy.
  std::optional<std::string> stale;
  if (out.fidelity == http::Fidelity::kBusy && config_.serve_stale_on_drop &&
      (stale = cache_->get_stale(t.key))) {
    out.fidelity = http::Fidelity::kCached;
    out.payload = *stale;
  }
  obs_.record(t.base_level, obs::Stage::kTotal, now - t.submitted_at);
  reply(out);
}

void ServiceBroker::end_context(RequestContext* ctx, double now, Outcome outcome,
                                http::Fidelity fidelity, std::string_view payload) {
  assert(outstanding_ > 0);
  --outstanding_;
  load_->dec();
  hotspot_.observe(load_->load());
  finish(Terminal(*ctx, outcome, fidelity, payload), now,
         [ctx](const ReplyView& r) { ctx->reply(r.owned()); });
  destroy_context(ctx);
}

bool ServiceBroker::may_retry(const RequestContext& ctx, double now) const {
  if (ctx.attempts >= ctx.attempt_budget) return false;
  double ready_at = now + kRetryBackoff * ctx.attempts;
  return ctx.deadline == kNoDeadline || ready_at < ctx.deadline;
}

void ServiceBroker::expire_deadlines(double now) {
  while (!deadlines_.empty() && deadlines_.top().first <= now) {
    uint64_t id = deadlines_.top().second;
    deadlines_.pop();
    auto it = contexts_.find(id);
    // Skip lazily-deleted entries (request already answered).
    if (it == contexts_.end()) continue;
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
          if (w.empty() && fit->second.leader == 0) {
            flights_.erase(fit);  // parked on a remote fetch, nobody left
          }
        } else if (exchange_id == 0) {
          // The leader died with no live fetch chain (pre-dispatch, or
          // parked for a retry slot that now never fires): promote a waiter
          // or drop the flight. A leader with a live exchange keeps it —
          // the completion or the harvest settles the flight.
          settle_abandoned_flight(ctx->payload, ctx->id);
        }
      }
    }
    end_context(ctx, now, Outcome::kDeadlineShed, http::Fidelity::kBusy,
                kDeadlineExceeded);
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
                              exchange.batch.member_ids[i]);
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
    requeue_single(*it->second);
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

  // Each admitted prefetch counts in the load the gate reads, so the
  // lowest class's bound caps how many are in flight; an entry the gate
  // refuses stays overdue and goes out on the first tick that admits it.
  while (background_admitted()) {
    std::optional<std::string> payload = prefetcher_.take_due(now);
    if (!payload) break;
    submit_background(*payload, now);
  }
}

void ServiceBroker::evaluate_overload(double now) {
  // Static-without-lifo never reads the signal.
  if (!overload_.wants_feedback()) return;
  if (now < next_overload_eval_) return;
  next_overload_eval_ = now + config_.overload.eval_interval;

  obs::LatencyHistogram total = obs_.merged_histogram(obs::Stage::kTotal);
  obs::LatencyHistogram queue = obs_.merged_histogram(obs::Stage::kQueueWait);
  // Hits, negative hits, no-backend errors and admission drops record a zero
  // kTotal span; the controller must judge the requests that did real work,
  // so exclude the [0,1us) bucket from the interval view.
  constexpr double kMinSignal = 1e-6;
  OverloadSignal signal;
  signal.samples = std::max(total.count_since(overload_total_base_, kMinSignal),
                            queue.count_since(overload_queue_base_, kMinSignal));
  // A thin interval carries no signal. Keep the previous snapshots, so the
  // window stretches until it does: at a cut threshold the admitted backlog,
  // and with it the samples per interval, shrinks, and a fixed window would
  // freeze the threshold where it stands.
  if (signal.samples < kMinSamples) return;
  signal.p95 =
      std::max(total.quantile_since(overload_total_base_, 0.95, kMinSignal),
               queue.quantile_since(overload_queue_base_, 0.95, kMinSignal));
  signal.budget = deadline_budget_ewma_;

  bool was_overloaded = overload_.overloaded();
  bool was_lifo = overload_.lifo_active();
  overload_.observe(signal);
  overload_total_base_ = std::move(total);
  overload_queue_base_ = std::move(queue);
  metrics_.overload = overload_.stats();

  if (overload_.overloaded() != was_overloaded) {
    obs_.trace(now, /*request_id=*/0, obs::TraceEventKind::kOverload,
               static_cast<uint8_t>(std::min(overload_.threshold(), 255.0)),
               overload_.overloaded() ? 1 : 0);
  }
  if (overload_.lifo_active() != was_lifo) {
    dispatch_queue_.set_lifo(overload_.lifo_active());
  }
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
    end_context(ctx, now, ok ? Outcome::kComplete : Outcome::kError,
                ok ? http::Fidelity::kCached : http::Fidelity::kError, payload);
  }
  // Release the cross-shard claim last: parked shards re-probe the cache on
  // wake-up, and the value (or negative entry) is already published.
  if (flight.leader != 0) flight_table_->resolve(std::string(key));
}

void ServiceBroker::settle_abandoned_flight(std::string_view key,
                                            uint64_t member_id) {
  auto fit = flights_.find(key);
  if (fit == flights_.end() || fit->second.leader != member_id) return;
  if (contexts_.count(member_id)) return;  // chain still alive (retry pending)
  promote_or_drop(key);
}

void ServiceBroker::promote_or_drop(std::string_view key) {
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
    bool owner = flight.leader != 0;
    flights_.erase(fit);
    if (owner) flight_table_->resolve(std::string(key));
    return;
  }
  // Try to take over the cross-shard claim; if another shard still holds
  // it, stay parked — its resolution (or death) wakes us again.
  if (flight.leader == 0 && !claim_flight(key)) return;
  uint64_t next_leader = waiters.front();
  waiters.erase(waiters.begin());
  flight.leader = next_leader;
  metrics_.flight.promotions += 1;
  // Re-enter the dispatch path exactly like a retry (a waiter was never
  // dispatched, so it has no replica to avoid); every caller reaches pump()
  // before returning to the event loop.
  requeue_single(*contexts_.at(next_leader));
}

void ServiceBroker::requeue_single(const RequestContext& ctx) {
  ReadyBatch ready;
  ready.batch.member_ids = {ctx.id};
  ready.batch.member_payloads = {std::string(ctx.payload)};
  ready.batch.combined_payload = std::string(ctx.payload);
  ready.priority = ctx.effective_level;
  ready.avoid = ctx.last_backend;
  dispatch_queue_.push(ready.priority, std::move(ready));
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
    // Only leaderless flights are waiting on a remote resolution;
    // anything else was settled (or re-claimed) locally in the meantime.
    if (fit == flights_.end() || fit->second.leader != 0) continue;
    scratch->reset();
    LookupView looked = cache_->lookup_into(key, now, *scratch);
    switch (looked.outcome) {
      case LookupOutcome::kHit:
      case LookupOutcome::kStaleServe:
      case LookupOutcome::kStaleRefresh:
        resolve_flight(key, now, /*ok=*/true, looked.value);
        if (looked.outcome == LookupOutcome::kStaleRefresh &&
            submit_background(key, now)) {
          metrics_.flight.refreshes += 1;
        }
        break;
      case LookupOutcome::kNegative:
        resolve_flight(key, now, /*ok=*/false, looked.value);
        break;
      case LookupOutcome::kMiss:
        // The remote fetch died without publishing anything: promote a
        // local waiter to lead a fresh fetch (re-claiming the table entry).
        promote_or_drop(key);
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
  // Fold the prefetch schedule only while the gate would admit a prefetch:
  // tick() takes no entry while it refuses, so arming a timer for an overdue
  // entry while busy makes every tick re-arm at `now` — a zero-delay wakeup
  // spin that pins the owner's event loop until load drains.
  if (background_admitted()) fold(prefetcher_.next_due());
  // Fold the overload-feedback cadence only while requests are in flight:
  // an idle broker has nothing to measure, and folding unconditionally
  // would re-arm a discrete-event owner's timer forever (the sim would
  // never drain). An overload mode latched at drain time simply waits for
  // traffic to resume before its exit evaluations run.
  if (outstanding_ > 0 && overload_.wants_feedback()) {
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
