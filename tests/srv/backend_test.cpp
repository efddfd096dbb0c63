#include <gtest/gtest.h>

#include "core/cluster.h"
#include "db/dataset.h"
#include "srv/cgi_backend.h"
#include "srv/db_backend.h"

namespace sbroker::srv {
namespace {

struct Reply {
  bool fired = false;
  double at = 0;
  bool ok = false;
  std::string payload;
};

core::Backend::Completion capture(Reply& r) {
  return [&r](double now, bool ok, const std::string& payload) {
    r.fired = true;
    r.at = now;
    r.ok = ok;
    r.payload = payload;
  };
}

class DbBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Rng rng(5);
    db::load_benchmark_table(db_, rng, 1000, 10);
  }
  sim::Simulation sim_;
  db::Database db_;
};

TEST_F(DbBackendTest, AnswersPointQuery) {
  SimDbBackend backend(sim_, db_, DbBackendConfig{});
  Reply r;
  backend.invoke({"SELECT id FROM records WHERE id = 17", false}, capture(r));
  sim_.run();
  ASSERT_TRUE(r.fired);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.payload, "id\n17\n");
  EXPECT_GT(r.at, 0.004);  // at least fixed cost + link latency
}

TEST_F(DbBackendTest, ConnectionSetupAddsLatency) {
  DbBackendConfig cfg;
  cfg.connection_setup = 0.5;
  SimDbBackend pooled(sim_, db_, cfg);
  Reply with, without;
  pooled.invoke({"SELECT id FROM records WHERE id = 1", true}, capture(with));
  pooled.invoke({"SELECT id FROM records WHERE id = 1", false}, capture(without));
  sim_.run();
  EXPECT_GT(with.at, without.at + 0.4);
}

TEST_F(DbBackendTest, RecordSeparatedBatchAnswersPerMember) {
  SimDbBackend backend(sim_, db_, DbBackendConfig{});
  std::string payload = std::string("SELECT id FROM records WHERE id = 1") +
                        core::kRecordSep + "SELECT id FROM records WHERE id = 2";
  Reply r;
  backend.invoke({payload, false}, capture(r));
  sim_.run();
  ASSERT_TRUE(r.ok);
  auto parts = core::ClusterEngine::split_records(r.payload);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "id\n1\n");
  EXPECT_EQ(parts[1], "id\n2\n");
}

TEST_F(DbBackendTest, RepeatQueryYieldsChunkPerRepeat) {
  SimDbBackend backend(sim_, db_, DbBackendConfig{});
  Reply r;
  backend.invoke({"SELECT id FROM records WHERE id = 3 REPEAT 4", false}, capture(r));
  sim_.run();
  ASSERT_TRUE(r.ok);
  auto parts = core::ClusterEngine::split_records(r.payload);
  ASSERT_EQ(parts.size(), 4u);
  for (const auto& p : parts) EXPECT_EQ(p, "id\n3\n");
}

TEST_F(DbBackendTest, BadSqlFailsTheCall) {
  SimDbBackend backend(sim_, db_, DbBackendConfig{});
  Reply r;
  backend.invoke({"DROP TABLE records", false}, capture(r));
  sim_.run();
  ASSERT_TRUE(r.fired);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.payload.find("query error"), std::string::npos);
  EXPECT_EQ(backend.failures(), 1u);
}

TEST_F(DbBackendTest, CapacityBoundSerializesExcessJobs) {
  DbBackendConfig cfg;
  cfg.capacity = 1;
  SimDbBackend backend(sim_, db_, cfg);
  Reply r1, r2;
  backend.invoke({"SELECT id FROM records WHERE id = 1", false}, capture(r1));
  backend.invoke({"SELECT id FROM records WHERE id = 2", false}, capture(r2));
  sim_.run();
  ASSERT_TRUE(r1.fired && r2.fired);
  EXPECT_GT(r2.at, r1.at);  // second waited for the single worker
}

TEST_F(DbBackendTest, QueueLimitRejects) {
  DbBackendConfig cfg;
  cfg.capacity = 1;
  cfg.queue_limit = 0;
  SimDbBackend backend(sim_, db_, cfg);
  Reply r1, r2;
  backend.invoke({"SELECT id FROM records WHERE id = 1", false}, capture(r1));
  backend.invoke({"SELECT id FROM records WHERE id = 2", false}, capture(r2));
  sim_.run();
  ASSERT_TRUE(r2.fired);
  EXPECT_TRUE(r1.ok);
  EXPECT_FALSE(r2.ok);
  EXPECT_EQ(r2.payload, "backend queue full");
}

TEST_F(DbBackendTest, DownRequestLinkFailsFast) {
  SimDbBackend backend(sim_, db_, DbBackendConfig{});
  backend.request_link().set_down(true);
  Reply r;
  backend.invoke({"SELECT id FROM records WHERE id = 5", false}, capture(r));
  sim_.run();
  ASSERT_TRUE(r.fired);  // completion resolves instead of hanging
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.payload, "link down");
  EXPECT_EQ(backend.failures(), 1u);
}

TEST_F(DbBackendTest, DownResponseLinkResolvesAsFailure) {
  SimDbBackend backend(sim_, db_, DbBackendConfig{});
  backend.response_link().set_down(true);
  Reply r;
  backend.invoke({"SELECT id FROM records WHERE id = 5", false}, capture(r));
  sim_.run();
  ASSERT_TRUE(r.fired);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.payload, "response link down");
}

TEST(CgiBackend, FixedProcessingTime) {
  sim::Simulation sim;
  CgiBackendConfig cfg;
  cfg.processing_time = 2.0;
  cfg.link = sim::Link::Params{};
  cfg.link.latency = 0.0;
  SimCgiBackend backend(sim, "backend1", cfg);
  Reply r;
  backend.invoke({"/cgi/task", false}, capture(r));
  sim.run();
  ASSERT_TRUE(r.fired);
  EXPECT_TRUE(r.ok);
  EXPECT_DOUBLE_EQ(r.at, 2.0);
  EXPECT_NE(r.payload.find("backend1 served /cgi/task"), std::string::npos);
}

TEST(CgiBackend, MaxClientsQueues) {
  sim::Simulation sim;
  CgiBackendConfig cfg;
  cfg.processing_time = 1.0;
  cfg.capacity = 5;
  cfg.link = sim::Link::Params{};
  cfg.link.latency = 0.0;
  SimCgiBackend backend(sim, "b", cfg);
  std::vector<Reply> replies(12);
  for (auto& r : replies) backend.invoke({"/t", false}, capture(r));
  sim.run();
  // 5 at t=1, 5 at t=2, 2 at t=3.
  int at1 = 0, at2 = 0, at3 = 0;
  for (const auto& r : replies) {
    if (r.at == 1.0) ++at1;
    if (r.at == 2.0) ++at2;
    if (r.at == 3.0) ++at3;
  }
  EXPECT_EQ(at1, 5);
  EXPECT_EQ(at2, 5);
  EXPECT_EQ(at3, 2);
}

TEST(CgiBackend, BatchCostsPerRecord) {
  sim::Simulation sim;
  CgiBackendConfig cfg;
  cfg.processing_time = 1.0;
  cfg.link = sim::Link::Params{};
  cfg.link.latency = 0.0;
  SimCgiBackend backend(sim, "b", cfg);
  Reply r;
  std::string payload = std::string("/a") + core::kRecordSep + "/b" + core::kRecordSep + "/c";
  backend.invoke({payload, false}, capture(r));
  sim.run();
  EXPECT_DOUBLE_EQ(r.at, 3.0);  // one worker, three records back to back
  auto parts = core::ClusterEngine::split_records(r.payload);
  EXPECT_EQ(parts.size(), 3u);
}

}  // namespace
}  // namespace sbroker::srv
