#include "db/dataset.h"

namespace sbroker::db {

void load_benchmark_table(Database& db, util::Rng& rng, uint64_t records,
                          int64_t categories) {
  Table& t = db.create_table(
      "records", Schema({{"id", Type::kInt},
                         {"category", Type::kInt},
                         {"score", Type::kReal},
                         {"payload", Type::kText}}));
  for (uint64_t i = 0; i < records; ++i) {
    Row row;
    row.emplace_back(static_cast<int64_t>(i));
    row.emplace_back(rng.uniform_int(0, categories - 1));
    row.emplace_back(rng.uniform_real(0.0, 1.0));
    row.emplace_back("payload-" + std::to_string(i));
    t.insert(std::move(row));
  }
  t.create_hash_index("id");
  t.create_ordered_index("category");
}

void load_movie_schedule(Database& db, util::Rng& rng, int64_t movies,
                         int64_t theaters, int64_t shows_per_day) {
  Table& t = db.create_table("schedule", Schema({{"movie_id", Type::kInt},
                                                 {"title", Type::kText},
                                                 {"theater", Type::kText},
                                                 {"showtime", Type::kInt}}));
  for (int64_t m = 0; m < movies; ++m) {
    std::string title = "Movie #" + std::to_string(m);
    for (int64_t th = 0; th < theaters; ++th) {
      for (int64_t s = 0; s < shows_per_day; ++s) {
        Row row;
        row.emplace_back(m);
        row.emplace_back(title);
        row.emplace_back("Theater " + std::to_string(th));
        // Showtimes between 10:00 and 23:00, minute granularity.
        row.emplace_back(rng.uniform_int(10 * 60, 23 * 60));
        t.insert(std::move(row));
      }
    }
  }
  t.create_hash_index("movie_id");
}

}  // namespace sbroker::db
