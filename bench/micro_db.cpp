// Microbenchmarks — mini database engine on the paper's 42,000-record table.
#include <benchmark/benchmark.h>

#include "db/dataset.h"
#include "db/executor.h"
#include "db/parser.h"
#include "util/rng.h"

using namespace sbroker;

namespace {

db::Database& benchmark_db() {
  static db::Database* db = [] {
    auto* d = new db::Database();
    util::Rng rng(1);
    db::load_benchmark_table(*d, rng, 42000, 100);
    return d;
  }();
  return *db;
}

void BM_ParseSelect(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(db::parse_select(
        "SELECT id, score FROM records WHERE category = 7 LIMIT 50"));
  }
}
BENCHMARK(BM_ParseSelect);

void BM_PointLookupIndexed(benchmark::State& state) {
  db::Database& db = benchmark_db();
  util::Rng rng(2);
  for (auto _ : state) {
    int64_t id = rng.uniform_int(0, 41999);
    auto rs = db::execute_sql(db, "SELECT * FROM records WHERE id = " + std::to_string(id));
    benchmark::DoNotOptimize(rs);
  }
}
BENCHMARK(BM_PointLookupIndexed);

void BM_CategoryRangeIndexed(benchmark::State& state) {
  db::Database& db = benchmark_db();
  util::Rng rng(3);
  for (auto _ : state) {
    int64_t c = rng.uniform_int(0, 99);
    auto rs = db::execute_sql(
        db, "SELECT id FROM records WHERE category = " + std::to_string(c) + " LIMIT 100");
    benchmark::DoNotOptimize(rs);
  }
}
BENCHMARK(BM_CategoryRangeIndexed);

void BM_FullScanFilter(benchmark::State& state) {
  db::Database& db = benchmark_db();
  for (auto _ : state) {
    auto rs = db::execute_sql(db, "SELECT id FROM records WHERE score = 0.5");
    benchmark::DoNotOptimize(rs);
  }
}
BENCHMARK(BM_FullScanFilter);

}  // namespace
