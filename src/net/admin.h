// HTTP admin plane for the broker daemon.
//
// Serves the operational surface the paper's evaluation needed ad-hoc
// harness code for: /metrics (Prometheus text exposition), /healthz,
// /statusz (the same families as JSON, histograms with percentiles) and
// /tracez (flight-recorder dump). /metrics and /statusz are two renderers
// of one registry: collect_metrics() turns a snapshot into a flat list of
// typed samples, and every sbroker_* family is named there and nowhere else.
// The AdminServer runs its own Reactor on a dedicated thread, so scrapes
// never compete with broker admission for a shard reactor's attention; its
// handlers snapshot shard state through ShardedBrokerDaemon::shard_status,
// which posts onto each shard reactor and waits.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/broker.h"
#include "core/hotspot.h"
#include "core/metrics.h"
#include "net/http_server.h"
#include "net/reactor.h"
#include "obs/observer.h"
#include "util/json.h"

namespace sbroker::net {

/// One backend replica's health as a shard's balancer sees it.
struct ReplicaStatus {
  size_t index = 0;
  size_t outstanding = 0;
  uint64_t picks = 0;
  bool ejected = false;
  /// Peak-decaying response-time EWMA, milliseconds, as of its last
  /// observation (snapshots carry no timeline to age it against). 0 = the
  /// replica has no latency sample yet.
  double ewma_ms = 0.0;
};

/// Point-in-time snapshot of one broker shard, taken on its owning thread.
struct ShardStatus {
  size_t shard = 0;
  const char* policy = "";       ///< balancer policy name (see balance.h)
  core::BrokerMetrics metrics;   ///< transport stats already folded in
  obs::BrokerObserver obs;       ///< histogram copy (trace stays behind)
  size_t outstanding = 0;
  core::LoadState load_state = core::LoadState::kNormal;
  uint64_t trace_recorded = 0;
  uint64_t trace_dropped = 0;
  /// Overload-control view (overload.h): policy, live effective admission
  /// threshold, and whether the shard is in declared overload / LIFO mode.
  const char* overload_policy = "";
  double admission_threshold = 0.0;
  bool overload_mode = false;
  bool lifo_active = false;
  std::vector<ReplicaStatus> replicas;
};

/// One federation peer as this node's admin plane reports it: channel
/// health summed across the node's shards, plus the peer's last gossip.
struct FederationPeerStatus {
  uint32_t node = 0;
  std::string identity;      ///< ring identity, e.g. "127.0.0.1:7001"
  bool self = false;
  bool connected = false;    ///< any shard's channel currently connected
  bool fresh = false;        ///< gossip heard within the staleness window
  uint32_t outstanding = 0;  ///< last gossiped outstanding count
  double threshold = 0.0;    ///< last gossiped admission threshold
  bool overloaded = false;   ///< last gossiped overload flag
  uint64_t fetches = 0;      ///< kPeerFetch sent to this peer
  uint64_t fetch_fails = 0;  ///< exchanges failed (close/timeout)
  uint64_t pushes = 0;       ///< hot-key pushes sent to this peer
  uint64_t gossips = 0;      ///< gossip frames sent to this peer
  uint64_t drops = 0;        ///< sends refused while the channel was down
  uint64_t dials = 0;        ///< connection attempts
};

/// Federation snapshot behind /statusz and /metrics, produced by
/// fed::FederatedDaemon::admin_status() (net/ only defines the DTO so the
/// admin plane needs no fed/ dependency).
struct FederationStatus {
  uint32_t node_id = 0;
  size_t nodes = 0;            ///< federation size, self included
  size_t vnodes = 0;           ///< ring virtual nodes per member
  double ring_share = 0.0;     ///< this node's owned fraction of key space
  double remote_pressure = 0.0;  ///< tier load entering admission
  uint64_t forwards_sent = 0;
  uint64_t forward_replies = 0;
  uint64_t forward_fails = 0;
  uint64_t fetches_served = 0;
  uint64_t pushes_sent = 0;
  uint64_t pushes_received = 0;
  uint64_t gossip_sent = 0;
  uint64_t gossip_received = 0;
  uint64_t gossip_rounds = 0;
  uint64_t view_updates = 0;
  std::vector<FederationPeerStatus> peers;
};

/// Builds a ShardStatus from a broker. Must run on the broker's own thread
/// (or while its daemon is stopped) — it reads single-writer state.
ShardStatus snapshot_shard(const core::ServiceBroker& broker, size_t shard);

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Label (name, value) pairs, in exposition order.
using MetricLabels = std::vector<std::pair<const char*, std::string>>;

/// One sample of the registry. Samples of a family are contiguous and carry
/// the family's name, help and kind.
struct MetricSample {
  const char* family = "";
  const char* help = "";
  MetricKind kind = MetricKind::kGauge;
  MetricLabels labels;
  double value = 0.0;  ///< counters and gauges
  std::optional<obs::LatencyHistogram> histogram;  ///< kHistogram: merged
};

/// The one metric registry: counters summed and latency histograms merged
/// across shards, per-shard and per-replica gauges, and, with a non-null
/// `federation`, the sbroker_federation_* families. String state (policy
/// names, load state, peer identity) rides as labels on *_info gauges of
/// value 1.
std::vector<MetricSample> collect_metrics(
    const std::vector<ShardStatus>& shards,
    const FederationStatus* federation = nullptr);

/// Prometheus text exposition of collect_metrics(); histograms as
/// cumulative `le` buckets plus _sum and _count.
std::string render_prometheus(const std::vector<ShardStatus>& shards,
                              const FederationStatus* federation = nullptr);

/// JSON form of the same families: an object keyed by family name, each
/// {"type","help","samples":[{"labels":{..},"value":v}]}; a histogram
/// sample carries "count", "sum", "buckets" (the `le` buckets /metrics
/// shows, keyed by bound) and "p50", "p95", "p99", "max".
std::string render_statusz(const std::vector<ShardStatus>& shards,
                           const FederationStatus* federation = nullptr);

/// Reading side of render_statusz: the samples of `family` in a parsed
/// /statusz document whose labels carry every `match` pair, in order.
std::vector<const util::JsonValue*> statusz_samples(
    const util::JsonValue& doc, std::string_view family,
    const std::vector<std::pair<std::string, std::string>>& match = {});

/// JSON dump of flight-recorder events (caller merges/sorts across shards).
std::string render_tracez(const std::vector<obs::TraceEvent>& events);

struct AdminConfig {
  bool enabled = true;  ///< serve the admin plane alongside the daemon
  uint16_t port = 0;    ///< 0 = ephemeral
};

class AdminServer {
 public:
  /// Snapshot callbacks run on the admin thread and may block (they post
  /// onto shard reactors and wait for the copies).
  using StatusFn = std::function<std::vector<ShardStatus>()>;
  using TraceFn = std::function<std::vector<obs::TraceEvent>()>;
  using FederationFn = std::function<FederationStatus()>;

  /// Binds the admin port and starts the admin reactor thread.
  AdminServer(uint16_t port, StatusFn status, TraceFn trace);
  ~AdminServer();  ///< stops the admin reactor and joins the thread
  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  uint16_t port() const { return port_; }

  /// Installs the federation snapshot source; /metrics and /statusz then
  /// include the federation families. Callable after the server is
  /// already running (mutex-guarded; the daemon wires this post-construction).
  void set_federation(FederationFn federation);

 private:
  /// Copies the federation source under the lock (admin thread).
  FederationFn federation_source();

  StatusFn status_;
  TraceFn trace_;
  std::mutex federation_mu_;
  FederationFn federation_;
  Reactor reactor_;
  std::unique_ptr<HttpServer> http_;
  uint16_t port_ = 0;
  std::thread thread_;
};

}  // namespace sbroker::net
