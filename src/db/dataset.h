// Dataset generators for the experiments and examples.
#pragma once

#include <cstdint>

#include "db/database.h"
#include "util/rng.h"

namespace sbroker::db {

/// The clustering-experiment table (paper Section V-A): `records`, default
/// 42,000 rows, schema (id INT, category INT, score REAL, payload TEXT).
/// A hash index on `id` and an ordered index on `category` are created.
/// Categories are uniform in [0, categories).
void load_benchmark_table(Database& db, util::Rng& rng, uint64_t records = 42000,
                          int64_t categories = 100);

/// Movie-schedule table for the caching example (paper Section III):
/// (movie_id INT, title TEXT, theater TEXT, showtime INT). `movies` titles
/// across `theaters` theaters with `shows_per_day` showtimes each.
void load_movie_schedule(Database& db, util::Rng& rng, int64_t movies = 50,
                         int64_t theaters = 12, int64_t shows_per_day = 5);

}  // namespace sbroker::db
