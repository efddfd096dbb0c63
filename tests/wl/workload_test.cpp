#include <gtest/gtest.h>

#include "sim/station.h"
#include "util/strings.h"
#include "wl/ab_client.h"
#include "wl/query_gen.h"
#include "wl/webstone_client.h"

namespace sbroker::wl {
namespace {

TEST(AbClient, IssuesExactlyTotalRequests) {
  sim::Simulation sim;
  uint64_t issued = 0;
  AbClient client(sim, AbConfig{5, 23}, [&](uint64_t, std::function<void()> done) {
    ++issued;
    sim.after(0.1, done);
  });
  client.start();
  sim.run();
  EXPECT_EQ(issued, 23u);
  EXPECT_TRUE(client.finished());
  EXPECT_EQ(client.response_times().count(), 23u);
}

TEST(AbClient, MaintainsConcurrencyWindow) {
  sim::Simulation sim;
  size_t in_flight = 0, max_in_flight = 0;
  AbClient client(sim, AbConfig{4, 40}, [&](uint64_t, std::function<void()> done) {
    ++in_flight;
    max_in_flight = std::max(max_in_flight, in_flight);
    sim.after(1.0, [&, done] {
      --in_flight;
      done();
    });
  });
  client.start();
  sim.run();
  EXPECT_EQ(max_in_flight, 4u);
}

TEST(AbClient, ConcurrencyLargerThanTotal) {
  sim::Simulation sim;
  uint64_t issued = 0;
  AbClient client(sim, AbConfig{100, 3}, [&](uint64_t, std::function<void()> done) {
    ++issued;
    sim.after(0.1, done);
  });
  client.start();
  sim.run();
  EXPECT_EQ(issued, 3u);
}

TEST(AbClient, SequenceNumbersAreDense) {
  sim::Simulation sim;
  std::vector<uint64_t> seqs;
  AbClient client(sim, AbConfig{2, 10}, [&](uint64_t seq, std::function<void()> done) {
    seqs.push_back(seq);
    sim.after(0.1, done);
  });
  client.start();
  sim.run();
  ASSERT_EQ(seqs.size(), 10u);
  std::sort(seqs.begin(), seqs.end());
  for (uint64_t i = 0; i < 10; ++i) EXPECT_EQ(seqs[i], i);
}

TEST(AbClient, ResponseTimeMeasuredAroundIssue) {
  sim::Simulation sim;
  AbClient client(sim, AbConfig{1, 2}, [&](uint64_t, std::function<void()> done) {
    sim.after(2.5, done);
  });
  client.start();
  sim.run();
  EXPECT_DOUBLE_EQ(client.response_times().mean_seconds(), 2.5);
}

TEST(WebStone, ClosedLoopIssuesUntilWindowEnds) {
  sim::Simulation sim;
  WebStoneConfig cfg;
  cfg.clients = 3;
  cfg.duration = 10.0;
  cfg.qos_level = 2;
  uint64_t issued = 0;
  WebStoneClients clients(sim, cfg, [&](int level, std::function<void()> done) {
    EXPECT_EQ(level, 2);
    ++issued;
    sim.after(1.0, done);
  });
  clients.start();
  sim.run();
  // 3 clients, 1s per request, 10s window -> 30 completions; the loop stops
  // issuing once the clock reaches the window end.
  EXPECT_EQ(clients.completed(), 30u);
  EXPECT_EQ(issued, 30u);
}

TEST(WebStone, FasterServiceMeansMoreCompletions) {
  auto run = [](double service_time) {
    sim::Simulation sim;
    WebStoneConfig cfg;
    cfg.clients = 2;
    cfg.duration = 20.0;
    WebStoneClients clients(sim, cfg, [&](int, std::function<void()> done) {
      sim.after(service_time, done);
    });
    clients.start();
    sim.run();
    return clients.completed();
  };
  EXPECT_GT(run(0.5), run(2.0));
}

TEST(WebStone, ThinkTimeSlowsIssueRate) {
  auto run = [](double think) {
    sim::Simulation sim;
    WebStoneConfig cfg;
    cfg.clients = 1;
    cfg.duration = 50.0;
    cfg.think_time = think;
    cfg.rng_seed = 7;
    WebStoneClients clients(sim, cfg, [&](int, std::function<void()> done) {
      sim.after(0.5, done);
    });
    clients.start();
    sim.run();
    return clients.completed();
  };
  EXPECT_GT(run(0.0), run(2.0));
}

TEST(QueryGen, PointQueriesParseable) {
  util::Rng rng(5);
  QueryGenerator gen(1000);
  for (int i = 0; i < 50; ++i) {
    std::string q = gen.next_point_query(rng);
    EXPECT_TRUE(util::starts_with(q, "SELECT * FROM records WHERE id = "));
  }
}

TEST(QueryGen, ZipfRepeatsKeysMoreOften) {
  util::Rng rng(5);
  QueryGenerator uniform(10000, QueryGenerator::Popularity::kUniform);
  QueryGenerator zipf(10000, QueryGenerator::Popularity::kZipf, 1.1);
  auto distinct = [&](QueryGenerator& gen) {
    std::set<std::string> seen;
    for (int i = 0; i < 2000; ++i) seen.insert(gen.next_point_query(rng));
    return seen.size();
  };
  EXPECT_GT(distinct(uniform), distinct(zipf));
}

TEST(QueryGen, CategoryQueryShape) {
  util::Rng rng(5);
  QueryGenerator gen(100);
  std::string q = gen.next_category_query(rng, 10, 25);
  EXPECT_NE(q.find("WHERE category = "), std::string::npos);
  EXPECT_NE(q.find("LIMIT 25"), std::string::npos);
}

TEST(QueryGen, MovieQueryBounded) {
  util::Rng rng(5);
  QueryGenerator gen(50, QueryGenerator::Popularity::kZipf, 1.0);
  for (int i = 0; i < 100; ++i) {
    std::string q = gen.next_movie_query(rng, 50);
    EXPECT_NE(q.find("FROM schedule WHERE movie_id = "), std::string::npos);
  }
}

}  // namespace
}  // namespace sbroker::wl
