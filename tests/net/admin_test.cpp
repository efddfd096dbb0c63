// Admin plane integration: /healthz, /metrics, /statusz, /tracez served by
// a live ShardedBrokerDaemon, with the scraped numbers agreeing with the
// traffic the test actually generated.
#include "net/admin.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/http_client.h"
#include "net/http_server.h"
#include "net/pipelined_backend.h"
#include "net/sharded_daemon.h"
#include "util/json.h"

namespace sbroker::net {
namespace {

std::optional<http::Response> admin_get(uint16_t port, std::string target) {
  http::Request req;
  req.method = "GET";
  req.target = std::move(target);
  req.headers.set("Host", "localhost");
  return http_fetch(port, req);
}

class AdminPlaneTest : public ::testing::Test {
 protected:
  void SetUp() override {
    backend_server_ = std::make_unique<HttpServer>(
        backend_reactor_, 0,
        [](const http::Request& req, HttpServer::Responder respond) {
          respond(http::make_response(200, "content of " + req.target));
        });
    backend_thread_ = std::thread([this] { backend_reactor_.run(); });
  }

  void TearDown() override {
    backend_reactor_.stop();
    backend_thread_.join();
  }

  std::unique_ptr<ShardedBrokerDaemon> make_daemon(size_t shards,
                                                   bool admin_enabled = true) {
    ShardedBrokerDaemonConfig cfg;
    cfg.broker.rules = core::QosRules{3, 50.0};
    cfg.broker.enable_cache = true;
    cfg.broker.cache_ttl = 30.0;
    cfg.shards = shards;
    cfg.enable_udp = false;
    cfg.tick_interval = 0.005;
    cfg.admin.enabled = admin_enabled;
    auto daemon = std::make_unique<ShardedBrokerDaemon>("admin-test", cfg);
    uint16_t port = backend_server_->port();
    daemon->add_backend([port](Reactor& reactor, size_t) {
      return std::make_shared<PipelinedBackend>(reactor, port);
    });
    daemon->start();
    return daemon;
  }

  /// Issues `n` distinct class-cycling requests over one connection.
  static void drive(ShardedBrokerDaemon& daemon, int n, uint64_t base = 0) {
    FrameClient client(daemon.port());
    for (int i = 0; i < n; ++i) {
      uint64_t id = base + static_cast<uint64_t>(i);
      auto reply =
          client.call(id, "/a" + std::to_string(id), 1 + i % 3);
      ASSERT_TRUE(reply.has_value()) << "request " << id;
    }
  }

  Reactor backend_reactor_;
  std::unique_ptr<HttpServer> backend_server_;
  std::thread backend_thread_;
};

TEST_F(AdminPlaneTest, HealthzAnswersAndUnknownRouteIs404) {
  auto daemon = make_daemon(2);
  ASSERT_NE(daemon->admin_port(), 0);

  auto health = admin_get(daemon->admin_port(), "/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 200);
  EXPECT_EQ(health->body, "ok\n");

  auto missing = admin_get(daemon->admin_port(), "/no-such-page");
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->status, 404);
  daemon->stop();
}

TEST_F(AdminPlaneTest, MetricsExposesCounterFamiliesAndHistogram) {
  auto daemon = make_daemon(2);
  drive(*daemon, 12);

  auto metrics = admin_get(daemon->admin_port(), "/metrics");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics->status, 200);
  EXPECT_NE(metrics->headers.get("Content-Type").value_or("").find("text/plain"),
            std::string::npos);
  const std::string& body = metrics->body;
  for (const char* needle :
       {"# TYPE sbroker_requests_total counter", "sbroker_completed_total",
        "sbroker_dropped_total", "class=\"3\"", "sbroker_shards 2",
        "# TYPE sbroker_latency_seconds histogram",
        "sbroker_latency_seconds_bucket", "le=\"+Inf\"",
        "stage=\"total\"", "sbroker_shard_load_state",
        "sbroker_replica_outstanding"}) {
    EXPECT_NE(body.find(needle), std::string::npos) << "missing: " << needle;
  }
  daemon->stop();
}

TEST_F(AdminPlaneTest, StatuszCountsMatchTraffic) {
  auto daemon = make_daemon(2);
  drive(*daemon, 15);  // classes cycle 1,2,3 -> 5 requests per class

  auto statusz = admin_get(daemon->admin_port(), "/statusz");
  ASSERT_TRUE(statusz.has_value());
  EXPECT_EQ(statusz->status, 200);
  auto doc = util::JsonValue::parse(statusz->body);
  ASSERT_TRUE(doc.has_value());

  auto shard_count = statusz_samples(*doc, "sbroker_shards");
  ASSERT_EQ(shard_count.size(), 1u);
  EXPECT_EQ((*shard_count[0])["value"].as_int(), 2);
  // All 15 answered before the scrape: one kTotal sample each, summed
  // across shards by the renderer.
  auto total = statusz_samples(*doc, "sbroker_stage_latency_seconds",
                               {{"stage", "total"}});
  ASSERT_EQ(total.size(), 1u);
  EXPECT_EQ((*total[0])["count"].as_int(), 15);
  EXPECT_GT((*total[0])["p50"].as_double(), 0.0);

  auto classes = statusz_samples(*doc, "sbroker_requests_total");
  ASSERT_EQ(classes.size(), 3u);
  int64_t issued = 0;
  for (const util::JsonValue* cls : classes) {
    EXPECT_EQ((*cls)["value"].as_int(), 5);
    issued += (*cls)["value"].as_int();
  }
  EXPECT_EQ(issued, 15);
  auto latency =
      statusz_samples(*doc, "sbroker_latency_seconds", {{"stage", "total"}});
  ASSERT_EQ(latency.size(), 3u);
  for (const util::JsonValue* cls : latency) {
    EXPECT_EQ((*cls)["count"].as_int(), 5);
  }

  auto traced = statusz_samples(*doc, "sbroker_trace_events_total");
  ASSERT_EQ(traced.size(), 2u);
  uint64_t recorded = 0;
  for (const util::JsonValue* s : traced) {
    recorded += static_cast<uint64_t>((*s)["value"].as_int());
    auto ejected = statusz_samples(*doc, "sbroker_replica_ejected",
                                   {{"shard", (*s)["labels"]["shard"].as_string()}});
    ASSERT_EQ(ejected.size(), 1u);
    EXPECT_EQ((*ejected[0])["value"].as_int(), 0);
  }
  EXPECT_GT(recorded, 0u);
  daemon->stop();
}

TEST_F(AdminPlaneTest, TracezIsTimeOrderedAndConserved) {
  auto daemon = make_daemon(2);
  drive(*daemon, 10);

  auto tracez = admin_get(daemon->admin_port(), "/tracez");
  ASSERT_TRUE(tracez.has_value());
  EXPECT_EQ(tracez->status, 200);
  EXPECT_NE(
      tracez->headers.get("Content-Type").value_or("").find("application/json"),
      std::string::npos);
  auto doc = util::JsonValue::parse(tracez->body);
  ASSERT_TRUE(doc.has_value());

  const util::JsonValue& events = (*doc)["events"];
  ASSERT_EQ((*doc)["events_retained"].as_int(),
            static_cast<int64_t>(events.size()));
  ASSERT_GT(events.size(), 0u);
  int admits = 0, terminals = 0;
  double prev_t = 0.0;
  for (const util::JsonValue& e : events.items()) {
    double t = e["t"].as_double();
    EXPECT_GE(t, prev_t);  // merged dump is sorted by time
    prev_t = t;
    const std::string& kind = e["event"].as_string();
    if (kind == "admit") ++admits;
    if (kind == "complete" || kind == "drop" || kind == "deadline" ||
        kind == "cache_hit") {
      ++terminals;
    }
  }
  // Every request was answered while tracing: terminals == requests, and
  // every non-cached answer was admitted first.
  EXPECT_EQ(terminals, 10);
  EXPECT_EQ(admits, 10);  // distinct targets -> no cache hits
  daemon->stop();
}

TEST_F(AdminPlaneTest, DisabledAdminPlaneBindsNoPort) {
  auto daemon = make_daemon(1, /*admin_enabled=*/false);
  EXPECT_EQ(daemon->admin_port(), 0);
  FrameClient client(daemon->port());
  auto reply = client.call(1, "/still-works", 3);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->payload, "content of /still-works");
  daemon->stop();
}

TEST_F(AdminPlaneTest, ShardStatusReadableAfterStop) {
  auto daemon = make_daemon(2);
  drive(*daemon, 6);
  daemon->stop();  // admin thread joined; snapshots switch to the direct path

  std::vector<ShardStatus> shards = daemon->shard_status();
  ASSERT_EQ(shards.size(), 2u);
  uint64_t issued = 0, total_samples = 0;
  for (const ShardStatus& s : shards) {
    issued += s.metrics.total().issued;
    total_samples += s.obs.merged_histogram(obs::Stage::kTotal).count();
  }
  EXPECT_EQ(issued, 6u);
  EXPECT_EQ(total_samples, 6u);

  // The renderers work on the offline snapshot too.
  std::string prom = render_prometheus(shards);
  EXPECT_NE(prom.find("sbroker_requests_total"), std::string::npos);
  auto doc = util::JsonValue::parse(render_statusz(shards));
  ASSERT_TRUE(doc.has_value());
  auto total = statusz_samples(*doc, "sbroker_stage_latency_seconds",
                               {{"stage", "total"}});
  ASSERT_EQ(total.size(), 1u);
  EXPECT_EQ((*total[0])["count"].as_int(), 6);
}

/// Series key: name plus its label set in sorted order, e.g.
/// `sbroker_dropped_total{class=1}`.
using SeriesMap = std::map<std::string, double>;

std::string series_key(std::string_view name,
                       std::map<std::string, std::string> labels) {
  std::string key(name);
  key += '{';
  for (const auto& [label, value] : labels) {
    key += label + "=" + value + ",";
  }
  key += '}';
  return key;
}

/// Parses Prometheus text into series values plus each family's TYPE and
/// HELP line.
SeriesMap parse_prometheus(const std::string& text,
                           std::map<std::string, std::string>* types,
                           std::map<std::string, std::string>* helps) {
  SeriesMap out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) == 0 || line.rfind("# HELP ", 0) == 0) {
      size_t space = line.find(' ', 7);
      auto& dest = line[2] == 'T' ? *types : *helps;
      EXPECT_TRUE(
          dest.emplace(line.substr(7, space - 7), line.substr(space + 1)).second)
          << "family declared twice: " << line;
      continue;
    }
    size_t name_end = line.find_first_of("{ ");
    std::string name = line.substr(0, name_end);
    std::map<std::string, std::string> labels;
    size_t pos = name_end;
    if (line[pos] == '{') {
      ++pos;
      while (line[pos] != '}') {
        size_t eq = line.find('=', pos);
        std::string label = line.substr(pos, eq - pos);
        std::string value;
        for (pos = eq + 2; line[pos] != '"'; ++pos) {
          bool escaped = line[pos] == '\\';
          if (escaped) ++pos;
          value += escaped && line[pos] == 'n' ? '\n' : line[pos];
        }
        labels[label] = value;
        pos += line[pos + 1] == ',' ? 2 : 1;
      }
      ++pos;
    }
    std::string key = series_key(name, labels);
    EXPECT_EQ(out.count(key), 0u) << "series twice: " << key;
    out[key] = std::strtod(line.c_str() + pos + 1, nullptr);
  }
  return out;
}

/// Walks the /statusz families into the same series map /metrics yields.
/// Histogram samples expand to _bucket (per `le`), _sum and _count; only
/// their p50/p95/p99/max fields have no /metrics counterpart.
SeriesMap walk_statusz(const util::JsonValue& doc,
                       std::map<std::string, std::string>* types,
                       std::map<std::string, std::string>* helps) {
  SeriesMap out;
  for (const auto& [family, body] : doc.members()) {
    (*types)[family] = body["type"].as_string();
    (*helps)[family] = body["help"].as_string();
    for (const util::JsonValue& sample : body["samples"].items()) {
      std::map<std::string, std::string> labels;
      for (const auto& [label, value] : sample["labels"].members()) {
        labels[label] = value.as_string();
      }
      for (const auto& [field, value] : sample.members()) {
        if (field == "labels" || field == "p50" || field == "p95" ||
            field == "p99" || field == "max") {
          continue;
        }
        if (field == "buckets") {
          for (const auto& [le, count] : value.members()) {
            auto with_le = labels;
            with_le["le"] = le;
            out[series_key(family + "_bucket", with_le)] = count.as_double();
          }
        } else if (field == "value") {
          out[series_key(family, labels)] = value.as_double();
        } else if (field == "count" || field == "sum") {
          out[series_key(family + "_" + field, labels)] = value.as_double();
        } else {
          ADD_FAILURE() << family << " sample has unmapped field " << field;
        }
      }
    }
  }
  return out;
}

FederationStatus two_peer_federation() {
  FederationStatus fed;
  fed.node_id = 1;
  fed.nodes = 3;
  fed.vnodes = 64;
  fed.ring_share = 0.3125;
  fed.remote_pressure = 2.75;
  fed.forwards_sent = 11;
  fed.gossip_rounds = 4;
  fed.view_updates = 9;
  fed.peers.push_back({0, "127.0.0.1:7000", false, true, true, 3, 12.5, false,
                       5, 1, 2, 8, 0, 1});
  fed.peers.push_back({1, "127.0.0.1:7001", true});
  // An identity with a quote, a backslash and a newline checks that both
  // renderers escape label values.
  fed.peers.push_back({2, "peer \"2\" \\ b\n", false, false, false, 0, 40.0,
                       true, 0, 3, 0, 2, 6, 4});
  return fed;
}

TEST_F(AdminPlaneTest, MetricsAndStatuszRenderTheSameRegistry) {
  auto daemon = make_daemon(2);
  drive(*daemon, 12);
  drive(*daemon, 9);  // repeats of /a0../a8: cache hits
  std::vector<ShardStatus> shards = daemon->shard_status();
  daemon->stop();
  FederationStatus fed = two_peer_federation();

  std::map<std::string, std::string> prom_types, prom_helps;
  SeriesMap prom =
      parse_prometheus(render_prometheus(shards, &fed), &prom_types, &prom_helps);
  auto doc = util::JsonValue::parse(render_statusz(shards, &fed));
  ASSERT_TRUE(doc.has_value());
  std::map<std::string, std::string> json_types, json_helps;
  SeriesMap json = walk_statusz(*doc, &json_types, &json_helps);

  EXPECT_EQ(prom_types, json_types);
  EXPECT_EQ(prom_helps, json_helps);
  for (const auto& [key, value] : prom) {
    auto it = json.find(key);
    if (it == json.end()) {
      ADD_FAILURE() << "/statusz lacks " << key;
    } else {
      EXPECT_EQ(it->second, value) << key;
    }
  }
  for (const auto& [key, value] : json) {
    EXPECT_EQ(prom.count(key), 1u) << "/metrics lacks " << key;
  }
  EXPECT_GT(prom.size(), 300u);

  // Conservation, read from the registry itself.
  std::map<std::string, double> by_family;
  for (const MetricSample& s : collect_metrics(shards, &fed)) {
    by_family[s.family] += s.value;
  }
  EXPECT_EQ(by_family.at("sbroker_requests_total"), 21.0);
  EXPECT_GT(by_family.at("sbroker_cache_hits_total"), 0.0);
  EXPECT_EQ(by_family.at("sbroker_requests_total"),
            by_family.at("sbroker_forwarded_total") +
                by_family.at("sbroker_dropped_total") +
                by_family.at("sbroker_cache_hits_total") +
                by_family.at("sbroker_errors_total"));
}

TEST(AdminRender, MetricsValuesParseBackExactly) {
  ShardStatus s;
  s.admission_threshold = 1234567.8901234567;  // 17 significant digits
  s.replicas.push_back(ReplicaStatus{0, 1, 2, false, 0.123456789});
  s.obs.record(1, obs::Stage::kTotal, 1234567.891234);  // sum past 1e6 s
  const obs::LatencyHistogram& h = s.obs.histogram(1, obs::Stage::kTotal);
  ASSERT_GT(h.sum_seconds(), 1e6);

  std::map<std::string, std::string> types, helps;
  SeriesMap prom = parse_prometheus(render_prometheus({s}), &types, &helps);
  EXPECT_EQ(prom.at("sbroker_admission_threshold{shard=0,}"),
            s.admission_threshold);
  EXPECT_EQ(prom.at("sbroker_replica_ewma_seconds{replica=0,shard=0,}"),
            s.replicas[0].ewma_ms * 1e-3);
  EXPECT_EQ(prom.at("sbroker_latency_seconds_sum{class=1,stage=total,}"),
            h.sum_seconds());
  EXPECT_EQ(prom.at("sbroker_latency_seconds_count{class=1,stage=total,}"), 1.0);
}

}  // namespace
}  // namespace sbroker::net
