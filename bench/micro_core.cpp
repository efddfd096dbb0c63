// Microbenchmarks — broker core data-path operations.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/arena.h"
#include "core/balance.h"
#include "core/cache.h"
#include "core/request.h"
#include "core/cluster.h"
#include "core/overload.h"
#include "core/scheduler.h"
#include "http/parser.h"
#include "http/wire.h"
#include "net/frame.h"

using namespace sbroker;

namespace {

// Keys are pre-generated outside the timed loops: building
// "key-" + std::to_string(i) inside them measured the allocator and
// integer formatting, not the cache.
std::vector<std::string> make_keys(size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) keys.push_back("key-" + std::to_string(i));
  return keys;
}

void BM_CacheLookupIntoHit(benchmark::State& state) {
  // The broker's one classified read on its private, one-stripe cache: the
  // hit value is copied into the request's arena under the stripe's
  // (uncontended) lock. Probing with the payload the broker already holds
  // must not allocate a temporary key.
  core::ResultCache cache(4096, 0.0);
  std::vector<std::string> keys = make_keys(1024);
  for (const std::string& k : keys) cache.put(k, "value", 0.0);
  core::Arena scratch;
  size_t i = 0;
  for (auto _ : state) {
    scratch.reset();
    auto v = cache.lookup_into(keys[i++ % keys.size()], 1.0, scratch);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_CacheLookupIntoHit);

void BM_CachePutEvicting(benchmark::State& state) {
  core::ResultCache cache(256, 0.0);
  std::vector<std::string> keys = make_keys(4096);
  size_t i = 0;
  for (auto _ : state) {
    cache.put(keys[i++ % keys.size()], "value", 0.0);
  }
}
BENCHMARK(BM_CachePutEvicting);

void BM_StripedCacheLookupIntoHit(benchmark::State& state) {
  // The daemon's hit probe on its shared cache of 8 stripes
  // (net::kCacheStripes): the same class as BM_CacheLookupIntoHit, plus the
  // key's hash to pick the stripe. google-benchmark's ->Threads(N) runs N
  // shards hitting one cache, which is where lock and cache-line traffic on
  // the stripes shows. Magic statics make initialization thread-safe; the
  // instances live for the whole process.
  static const std::vector<std::string>& keys = *new std::vector<std::string>(make_keys(1024));
  static core::ResultCache& cache = *[] {
    auto* c = new core::ResultCache(4096, 0.0, 8);
    for (const std::string& k : keys) c->put(k, "value", 0.0);
    return c;
  }();
  core::Arena scratch;
  size_t i = static_cast<size_t>(state.thread_index()) * 37;
  for (auto _ : state) {
    scratch.reset();
    auto v = cache.lookup_into(keys[i++ % keys.size()], 1.0, scratch);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_StripedCacheLookupIntoHit)->Threads(1)->Threads(2)->Threads(4);

// pick() sits on the dispatch hot path (once per batch, plus once per retry
// and background fetch); it must stay an allocation-free index scan for
// every policy. Arg(0..5) selects the BalancePolicy enum value; 8 replicas
// with warmed EWMA state and a standing avoid hint exercise the worst-case
// scan.
void BM_BalancerPick(benchmark::State& state) {
  auto policy = static_cast<core::BalancePolicy>(state.range(0));
  core::LoadBalancer lb(policy, util::Rng(17));
  for (int i = 0; i < 8; ++i) lb.add_backend(1.0 + i % 3);
  double now = 0.0;
  for (size_t i = 0; i < 8; ++i) {
    auto b = lb.pick(now);
    lb.report(*b, true, now, 0.001 * static_cast<double>(i + 1));
    lb.complete(*b);
  }
  for (auto _ : state) {
    now += 1e-4;
    auto b = lb.pick(now, /*avoid=*/3);
    benchmark::DoNotOptimize(b);
    lb.report(*b, true, now, 0.002);
    lb.complete(*b);
  }
}
BENCHMARK(BM_BalancerPick)
    ->Arg(static_cast<int>(core::BalancePolicy::kRandom))
    ->Arg(static_cast<int>(core::BalancePolicy::kRoundRobin))
    ->Arg(static_cast<int>(core::BalancePolicy::kLeastOutstanding))
    ->Arg(static_cast<int>(core::BalancePolicy::kWeighted))
    ->Arg(static_cast<int>(core::BalancePolicy::kEwma))
    ->Arg(static_cast<int>(core::BalancePolicy::kP2c));

void BM_SchedulerPushPop(benchmark::State& state) {
  core::QosScheduler<int> scheduler;
  int level = 0;
  for (auto _ : state) {
    scheduler.push(1 + (level++ % 3), 42);
    benchmark::DoNotOptimize(scheduler.pop());
  }
}
BENCHMARK(BM_SchedulerPushPop);

void BM_AdmissionDecide(benchmark::State& state) {
  core::OverloadController ctl(core::QosRules{3, 20.0});
  double load = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctl.admit(2, load));
    load = load > 25 ? 0 : load + 0.1;
  }
}
BENCHMARK(BM_AdmissionDecide);

void BM_HttpParseRequest(benchmark::State& state) {
  std::string wire =
      "GET /app/movie?id=42 HTTP/1.1\r\nHost: front\r\nX-QoS-Level: 2\r\n"
      "Content-Length: 11\r\n\r\nhello world";
  for (auto _ : state) {
    benchmark::DoNotOptimize(http::parse_request(wire));
  }
}
BENCHMARK(BM_HttpParseRequest);

void BM_ClusterAddFlush(benchmark::State& state) {
  size_t degree = static_cast<size_t>(state.range(0));
  core::ClusterEngine engine(core::ClusterConfig{degree, 1e9});
  uint64_t id = 0;
  for (auto _ : state) {
    auto batch = engine.add(id++, "SELECT * FROM records WHERE id = 1", 0.0);
    benchmark::DoNotOptimize(batch);
  }
}
BENCHMARK(BM_ClusterAddFlush)->Arg(1)->Arg(8)->Arg(40);

void BM_ClusterSplitReply(benchmark::State& state) {
  size_t parts = static_cast<size_t>(state.range(0));
  core::Batch batch;
  std::vector<std::string> payloads;
  for (size_t i = 0; i < parts; ++i) {
    batch.member_ids.push_back(i);
    payloads.push_back("result chunk " + std::to_string(i));
  }
  std::string reply = core::ClusterEngine::join_payloads(payloads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ClusterEngine::split_reply(batch, reply));
  }
}
BENCHMARK(BM_ClusterSplitReply)->Arg(8)->Arg(40);

void BM_FrameEncodeDecodeRequest(benchmark::State& state) {
  net::frame::Request req{1, 2, 0, "SELECT * FROM records WHERE id = 123456"};
  std::string bytes;
  for (auto _ : state) {
    bytes.clear();
    net::frame::encode_request(req, bytes);
    net::frame::Request decoded;
    size_t consumed = 0;
    benchmark::DoNotOptimize(net::frame::parse_request(bytes, decoded, &consumed));
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_FrameEncodeDecodeRequest);

void BM_FrameEncodeReply(benchmark::State& state) {
  std::string payload(256, 'x');
  std::string bytes;
  for (auto _ : state) {
    bytes.clear();
    net::frame::encode_reply(7, http::Fidelity::kCached,
                             net::frame::kFlagCacheServed, payload, bytes);
    benchmark::DoNotOptimize(bytes);
  }
}
BENCHMARK(BM_FrameEncodeReply);

// Arena bump allocation vs the strings the request path used to build: the
// steady state (first block retained across reset) must be a pointer bump.
void BM_ArenaStoreReset(benchmark::State& state) {
  core::Arena arena;
  std::string value(static_cast<size_t>(state.range(0)), 'v');
  for (auto _ : state) {
    benchmark::DoNotOptimize(arena.store(value));
    arena.reset();
  }
}
BENCHMARK(BM_ArenaStoreReset)->Arg(64)->Arg(512)->Arg(4096);

void BM_ArenaCreateContext(benchmark::State& state) {
  core::ArenaPool pool;
  for (auto _ : state) {
    auto arena = pool.acquire();
    auto* ctx = arena->create<core::RequestContext>();
    ctx->payload = arena->store("/object-123456");
    benchmark::DoNotOptimize(ctx);
    ctx->~RequestContext();
    pool.release(std::move(arena));
  }
}
BENCHMARK(BM_ArenaCreateContext);

}  // namespace
