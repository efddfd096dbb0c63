#include "net/admin.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <initializer_list>
#include <utility>

#include "http/message.h"

namespace sbroker::net {
namespace {

/// Cumulative upper bounds (seconds) of the exposition ladder. Coarser than
/// the native log-linear buckets; count_le() projects onto it. The last
/// rung is the histogram's trackable limit, so +Inf minus it is the
/// overflow count.
constexpr double kLeLadder[] = {
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
    2.5,    5.0,   10.0,
    static_cast<double>(obs::LatencyHistogram::kMaxTrackableUs) * 1e-6};

/// The `le` buckets both renderers show: (bound, cumulative count), "+Inf"
/// last.
std::vector<std::pair<std::string, double>> le_buckets(
    const obs::LatencyHistogram& h) {
  std::vector<std::pair<std::string, double>> out;
  for (double le : kLeLadder) {
    out.emplace_back(util::format_double(le), h.count_le(le));
  }
  out.emplace_back("+Inf", static_cast<double>(h.count()));
  return out;
}

const char* kind_name(MetricKind kind) {
  constexpr const char* kNames[] = {"counter", "gauge", "histogram"};
  return kNames[static_cast<int>(kind)];
}

/// Appends samples family by family: family() names the family once and
/// the sample() calls that follow belong to it.
class Collector {
 public:
  Collector& family(const char* name, MetricKind kind, const char* help) {
    name_ = name;
    kind_ = kind;
    help_ = help;
    return *this;
  }
  void sample(MetricLabels labels, double value) {
    out_.push_back(MetricSample{name_, help_, kind_, std::move(labels), value,
                                std::nullopt});
  }
  void sample(MetricLabels labels, const obs::LatencyHistogram& h) {
    out_.push_back(
        MetricSample{name_, help_, kind_, std::move(labels), 0.0, h});
  }
  /// A family of one unlabelled sample.
  void scalar(const char* name, MetricKind kind, const char* help,
              double value) {
    family(name, kind, help).sample({}, value);
  }
  std::vector<MetricSample> take() { return std::move(out_); }

 private:
  const char* name_ = "";
  const char* help_ = "";
  MetricKind kind_ = MetricKind::kGauge;
  std::vector<MetricSample> out_;
};

constexpr MetricKind kCounter = MetricKind::kCounter;
constexpr MetricKind kGauge = MetricKind::kGauge;

void collect_federation(Collector& c, const FederationStatus& fed) {
  c.scalar("sbroker_federation_node", kGauge,
           "This node's id within the federation.", fed.node_id);
  c.scalar("sbroker_federation_nodes", kGauge, "Federation size.", fed.nodes);
  c.scalar("sbroker_federation_vnodes", kGauge,
           "Ring virtual nodes per member.", fed.vnodes);
  c.scalar("sbroker_federation_ring_share", kGauge,
           "Fraction of the key space this node owns on the ring.",
           fed.ring_share);
  c.scalar("sbroker_federation_remote_pressure", kGauge,
           "Tier-wide load from gossip entering admission.",
           fed.remote_pressure);
  c.scalar("sbroker_federation_forwards_sent_total", kCounter,
           "Cache misses forwarded to their ring owner.", fed.forwards_sent);
  c.scalar("sbroker_federation_forward_replies_total", kCounter,
           "Owner answers relayed back to clients.", fed.forward_replies);
  c.scalar("sbroker_federation_forward_fails_total", kCounter,
           "Forwards failed over to a local fetch.", fed.forward_fails);
  c.scalar("sbroker_federation_fetches_served_total", kCounter,
           "Peer fetches this node answered as owner.", fed.fetches_served);
  c.scalar("sbroker_federation_pushes_sent_total", kCounter,
           "Hot-key replication pushes sent (per peer).", fed.pushes_sent);
  c.scalar("sbroker_federation_pushes_received_total", kCounter,
           "Hot-key replication pushes installed.", fed.pushes_received);
  c.scalar("sbroker_federation_gossip_sent_total", kCounter,
           "Gossip frames sent (per peer).", fed.gossip_sent);
  c.scalar("sbroker_federation_gossip_received_total", kCounter,
           "Gossip frames folded into the global view.", fed.gossip_received);
  c.scalar("sbroker_federation_gossip_rounds_total", kCounter,
           "Gossip broadcast rounds completed.", fed.gossip_rounds);
  c.scalar("sbroker_federation_view_updates_total", kCounter,
           "Global-view changes applied from gossip.", fed.view_updates);

  c.family("sbroker_federation_peer_info", kGauge,
           "Federation members (self included) with their ring identity; "
           "value 1.");
  for (const auto& p : fed.peers) {
    c.sample({{"peer", std::to_string(p.node)},
              {"identity", p.identity},
              {"self", p.self ? "1" : "0"}},
             1.0);
  }
  auto per_peer = [&](const char* name, MetricKind kind, const char* help,
                      auto field) {
    c.family(name, kind, help);
    for (const auto& p : fed.peers) {
      if (!p.self) c.sample({{"peer", std::to_string(p.node)}}, p.*field);
    }
  };
  using Peer = FederationPeerStatus;
  per_peer("sbroker_federation_peer_connected", kGauge,
           "1 when any shard holds a live channel to the peer.",
           &Peer::connected);
  per_peer("sbroker_federation_peer_fresh", kGauge,
           "1 when the peer gossiped within the staleness window.",
           &Peer::fresh);
  per_peer("sbroker_federation_peer_outstanding", kGauge,
           "Peer's last gossiped outstanding-request count.",
           &Peer::outstanding);
  per_peer("sbroker_federation_peer_threshold", kGauge,
           "Peer's last gossiped admission threshold.", &Peer::threshold);
  per_peer("sbroker_federation_peer_overloaded", kGauge,
           "1 when the peer last gossiped that it is overloaded.",
           &Peer::overloaded);
  per_peer("sbroker_federation_peer_fetches_total", kCounter,
           "Peer fetches sent to the peer.", &Peer::fetches);
  per_peer("sbroker_federation_peer_fetch_fails_total", kCounter,
           "Peer exchanges failed (close or timeout).", &Peer::fetch_fails);
  per_peer("sbroker_federation_peer_pushes_total", kCounter,
           "Hot-key pushes sent to the peer.", &Peer::pushes);
  per_peer("sbroker_federation_peer_gossips_total", kCounter,
           "Gossip frames sent to the peer.", &Peer::gossips);
  per_peer("sbroker_federation_peer_drops_total", kCounter,
           "Sends refused while the peer's channel was down.", &Peer::drops);
  per_peer("sbroker_federation_peer_dials_total", kCounter,
           "Connection attempts to the peer.", &Peer::dials);
}

/// Prometheus spelling of a sample value.
std::string prometheus_number(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return util::format_double(v);
}

void append_series(std::string& out, std::string_view name,
                   const MetricLabels& labels, double value) {
  out += name;
  for (size_t i = 0; i < labels.size(); ++i) {
    out += i == 0 ? '{' : ',';
    out += labels[i].first;
    out += "=\"";
    for (char ch : labels[i].second) {
      if (ch == '\\' || ch == '"' || ch == '\n') out += '\\';
      out += ch == '\n' ? 'n' : ch;
    }
    out += '"';
  }
  if (!labels.empty()) out += '}';
  out += ' ';
  out += prometheus_number(value);
  out += '\n';
}

}  // namespace

ShardStatus snapshot_shard(const core::ServiceBroker& broker, size_t shard) {
  ShardStatus s;
  s.shard = shard;
  s.metrics = broker.metrics();
  s.metrics.transport.merge(broker.channel_stats());
  s.obs = broker.observer();
  s.outstanding = broker.outstanding();
  s.load_state = broker.load_state();
  s.trace_recorded = broker.observer().recorder().recorded();
  s.trace_dropped = broker.observer().recorder().dropped();
  const core::OverloadController& overload = broker.overload_control();
  s.overload_policy = core::overload_policy_name(overload.policy());
  s.admission_threshold = overload.threshold();
  s.overload_mode = overload.overloaded();
  s.lifo_active = overload.lifo_active();
  const core::LoadBalancer& lb = broker.balancer();
  s.policy = core::balance_policy_name(lb.policy());
  s.replicas.reserve(lb.backend_count());
  for (size_t i = 0; i < lb.backend_count(); ++i) {
    s.replicas.push_back(ReplicaStatus{i, lb.outstanding(i), lb.picks(i),
                                       lb.ejected(i),
                                       lb.last_ewma_seconds(i) * 1e3});
  }
  return s;
}

std::vector<MetricSample> collect_metrics(
    const std::vector<ShardStatus>& shards,
    const FederationStatus* federation) {
  // Fold counters/histograms across shards first; per-shard gauges follow.
  int num_levels = 1;
  for (const auto& s : shards) {
    num_levels = std::max(num_levels, s.metrics.num_levels());
  }
  core::BrokerMetrics metrics(num_levels);
  obs::BrokerObserver observer(obs::ObsConfig{false}, num_levels);
  size_t outstanding = 0;
  for (const auto& s : shards) {
    metrics.merge(s.metrics);
    observer.merge(s.obs);
    outstanding += s.outstanding;
  }

  Collector c;
  using Counters = core::BrokerMetrics::ClassCounters;
  auto per_class = [&](const char* name, const char* help,
                       uint64_t Counters::* field) {
    c.family(name, kCounter, help);
    for (int level = 1; level <= num_levels; ++level) {
      c.sample({{"class", std::to_string(level)}},
               metrics.at(level).*field);
    }
  };
  per_class("sbroker_requests_total", "Requests submitted, by QoS class.",
            &Counters::issued);
  per_class("sbroker_forwarded_total", "Requests forwarded to a backend.",
            &Counters::forwarded);
  per_class("sbroker_dropped_total",
            "Requests shed (admission, saturation, deadline).",
            &Counters::dropped);
  per_class("sbroker_cache_hits_total",
            "Requests served from the result cache.", &Counters::cache_hits);
  per_class("sbroker_completed_total", "Replies delivered, any fidelity.",
            &Counters::completed);
  per_class("sbroker_errors_total", "Backend failures surfaced to clients.",
            &Counters::errors);
  per_class("sbroker_deadline_misses_total", "Deadline-expired sheds.",
            &Counters::deadline_misses);
  per_class("sbroker_lifo_sheds_total",
            "Deadline sheds taken while the class queue ran LIFO.",
            &Counters::lifo_sheds);
  per_class("sbroker_retries_total", "Broker-level re-dispatches.",
            &Counters::retries);

  c.scalar("sbroker_outstanding", kGauge,
           "Requests admitted and not yet answered.", outstanding);
  c.scalar("sbroker_shards", kGauge, "Broker reactor shards.", shards.size());

  const core::ChannelStats& transport = metrics.transport;
  c.scalar("sbroker_transport_calls_total", kCounter,
           "Backend exchanges handed to the channels.", transport.calls);
  c.scalar("sbroker_transport_connections_opened_total", kCounter,
           "Physical backend connection setups.", transport.connections_opened);
  c.scalar("sbroker_transport_flushes_total", kCounter,
           "Coalesced backend write flushes.", transport.flushes);
  c.scalar("sbroker_transport_requests_written_total", kCounter,
           "Backend requests carried by those flushes.",
           transport.requests_written);
  c.scalar("sbroker_transport_rejections_total", kCounter,
           "Exchanges refused by a saturated channel.", transport.rejections);
  c.scalar("sbroker_transport_retries_total", kCounter,
           "Exchanges re-issued after connection loss.", transport.retries);
  c.scalar("sbroker_transport_timeouts_total", kCounter,
           "Backend exchanges failed on the transport deadline.",
           transport.timeouts);
  c.scalar("sbroker_transport_cancels_total", kCounter,
           "Exchanges abandoned through a cancel token.", transport.cancels);
  c.scalar("sbroker_transport_peak_in_flight", kGauge,
           "Deepest pipeline seen on one backend connection.",
           transport.peak_in_flight);

  const core::BrokerMetrics::LifecycleStats& lifecycle = metrics.lifecycle;
  c.scalar("sbroker_lifecycle_cancellations_total", kCounter,
           "In-flight exchanges abandoned at deadline expiry.",
           lifecycle.cancellations);
  c.scalar("sbroker_lifecycle_late_completions_total", kCounter,
           "Backend answers that arrived after the broker gave up.",
           lifecycle.late_completions);
  c.scalar("sbroker_lifecycle_ejections_total", kCounter,
           "Replica ejections.", lifecycle.ejections);
  c.scalar("sbroker_lifecycle_recoveries_total", kCounter,
           "Replicas recovered through a half-open probe.",
           lifecycle.recoveries);
  c.scalar("sbroker_lifecycle_probes_total", kCounter,
           "Half-open probe requests issued.", lifecycle.probes);

  const core::BrokerMetrics::FlightStats& flight = metrics.flight;
  c.scalar("sbroker_coalesced_waiters_total", kCounter,
           "Misses attached to an in-flight identical fetch.",
           flight.coalesced_waiters);
  c.scalar("sbroker_swr_hits_total", kCounter,
           "Stale results served within the revalidation grace window.",
           flight.swr_hits);
  c.scalar("sbroker_refreshes_total", kCounter,
           "Background revalidation fetches issued.", flight.refreshes);
  c.scalar("sbroker_negative_hits_total", kCounter,
           "Errors answered from the negative cache.", flight.negative_hits);
  c.scalar("sbroker_flight_promotions_total", kCounter,
           "Waiters promoted to fetch leader after a dead fetch.",
           flight.promotions);

  const core::BrokerMetrics::BackgroundStats& bg = metrics.background;
  c.family("sbroker_background_fetches_total", kCounter,
           "Prefetches and stale refreshes, by outcome (issued = completed + "
           "dropped + failed).");
  c.sample({{"outcome", "issued"}}, bg.issued);
  c.sample({{"outcome", "completed"}}, bg.completed);
  c.sample({{"outcome", "dropped"}}, bg.dropped);
  c.sample({{"outcome", "failed"}}, bg.failed);

  const core::OverloadStats& overload = metrics.overload;
  c.scalar("sbroker_overload_evals_total", kCounter,
           "Overload-feedback intervals that carried enough samples.",
           overload.evals);
  c.scalar("sbroker_overload_increases_total", kCounter,
           "Additive admission-threshold raises.", overload.increases);
  c.scalar("sbroker_overload_decreases_total", kCounter,
           "Multiplicative admission-threshold cuts.", overload.decreases);
  c.scalar("sbroker_overload_enters_total", kCounter,
           "Overload-mode entries (hysteresis applied).", overload.enters);
  c.scalar("sbroker_overload_exits_total", kCounter,
           "Overload-mode exits (hysteresis applied).", overload.exits);

  c.family("sbroker_latency_seconds", MetricKind::kHistogram,
           "Request latency by lifecycle stage and QoS class.");
  for (size_t i = 0; i < obs::kNumStages; ++i) {
    auto stage = static_cast<obs::Stage>(i);
    for (int level = 1; level <= num_levels; ++level) {
      c.sample({{"stage", obs::stage_name(stage)},
                {"class", std::to_string(level)}},
               observer.histogram(level, stage));
    }
  }
  c.family("sbroker_stage_latency_seconds", MetricKind::kHistogram,
           "Request latency by lifecycle stage, all classes merged.");
  for (size_t i = 0; i < obs::kNumStages; ++i) {
    auto stage = static_cast<obs::Stage>(i);
    c.sample({{"stage", obs::stage_name(stage)}},
             observer.merged_histogram(stage));
  }

  c.family("sbroker_shard_info", kGauge,
           "Per-shard balancer policy, overload policy and load state; "
           "value 1.");
  for (const auto& s : shards) {
    c.sample({{"shard", std::to_string(s.shard)},
              {"policy", s.policy},
              {"overload_policy", s.overload_policy},
              {"load_state", core::load_state_name(s.load_state)}},
             1.0);
  }
  auto per_shard = [&](const char* name, MetricKind kind, const char* help,
                       auto value) {
    c.family(name, kind, help);
    for (const auto& s : shards) {
      c.sample({{"shard", std::to_string(s.shard)}}, std::invoke(value, s));
    }
  };
  per_shard("sbroker_shard_outstanding", kGauge,
            "Requests admitted and not yet answered, per shard.",
            &ShardStatus::outstanding);
  per_shard("sbroker_admission_threshold", kGauge,
            "Live effective admission threshold per shard.",
            &ShardStatus::admission_threshold);
  per_shard("sbroker_overload_mode", kGauge,
            "1 while the shard's controller declares overload "
            "(2 when the LIFO queue discipline is also active).",
            [](const ShardStatus& s) {
              return s.lifo_active ? 2.0 : s.overload_mode ? 1.0 : 0.0;
            });
  per_shard("sbroker_shard_load_state", kGauge,
            "Hot-spot classification per shard (0 normal, 1 warm, 2 hot).",
            [](const ShardStatus& s) {
              return static_cast<int>(s.load_state);
            });
  per_shard("sbroker_trace_events_total", kCounter,
            "Flight-recorder events written per shard.",
            &ShardStatus::trace_recorded);
  per_shard("sbroker_trace_events_dropped_total", kCounter,
            "Flight-recorder events lost to ring wraparound.",
            &ShardStatus::trace_dropped);

  auto per_replica = [&](const char* name, MetricKind kind, const char* help,
                         auto value) {
    c.family(name, kind, help);
    for (const auto& s : shards) {
      for (const auto& r : s.replicas) {
        c.sample({{"shard", std::to_string(s.shard)},
                  {"replica", std::to_string(r.index)}},
                 std::invoke(value, r));
      }
    }
  };
  per_replica("sbroker_replica_outstanding", kGauge,
              "In-flight exchanges per backend replica.",
              &ReplicaStatus::outstanding);
  per_replica("sbroker_replica_ejected", kGauge,
              "1 when the balancer has ejected the replica.",
              &ReplicaStatus::ejected);
  per_replica("sbroker_replica_picks_total", kCounter,
              "Requests the balancer has routed to the replica.",
              &ReplicaStatus::picks);
  per_replica("sbroker_replica_ewma_seconds", kGauge,
              "Peak-decaying response-time EWMA per replica as of its last "
              "observation (0 = no sample).",
              [](const ReplicaStatus& r) { return r.ewma_ms * 1e-3; });

  if (federation != nullptr) collect_federation(c, *federation);
  return c.take();
}

std::string render_prometheus(const std::vector<ShardStatus>& shards,
                              const FederationStatus* federation) {
  std::string out;
  std::string_view family;
  for (const MetricSample& s : collect_metrics(shards, federation)) {
    if (s.family != family) {
      family = s.family;
      for (std::string_view part : std::initializer_list<std::string_view>{
               "# HELP ", family, " ", s.help, "\n# TYPE ", family, " ",
               kind_name(s.kind), "\n"}) {
        out += part;
      }
    }
    if (!s.histogram) {
      append_series(out, family, s.labels, s.value);
      continue;
    }
    const std::string name(family);
    MetricLabels labels = s.labels;
    labels.emplace_back("le", "");
    for (const auto& [le, count] : le_buckets(*s.histogram)) {
      labels.back().second = le;
      append_series(out, name + "_bucket", labels, count);
    }
    append_series(out, name + "_sum", s.labels, s.histogram->sum_seconds());
    append_series(out, name + "_count", s.labels,
                  static_cast<double>(s.histogram->count()));
  }
  return out;
}

std::string render_statusz(const std::vector<ShardStatus>& shards,
                           const FederationStatus* federation) {
  util::JsonWriter w;
  w.begin_object();
  std::string_view family;
  for (const MetricSample& s : collect_metrics(shards, federation)) {
    if (s.family != family) {
      if (!family.empty()) w.end_array().end_object();
      family = s.family;
      w.key(family)
          .begin_object()
          .field("type", kind_name(s.kind))
          .field("help", s.help)
          .key("samples")
          .begin_array();
    }
    w.begin_object().key("labels").begin_object();
    for (const auto& [name, value] : s.labels) w.field(name, value);
    w.end_object();
    if (const auto& h = s.histogram) {
      w.field("count", static_cast<double>(h->count()))
          .field("sum", h->sum_seconds())
          .key("buckets")
          .begin_object();
      for (const auto& [le, count] : le_buckets(*h)) w.field(le, count);
      w.end_object()
          .field("p50", h->p50())
          .field("p95", h->p95())
          .field("p99", h->p99())
          .field("max", h->max_seconds());
    } else {
      w.field("value", s.value);
    }
    w.end_object();
  }
  if (!family.empty()) w.end_array().end_object();
  w.end_object();
  return w.str();
}

std::vector<const util::JsonValue*> statusz_samples(
    const util::JsonValue& doc, std::string_view family,
    const std::vector<std::pair<std::string, std::string>>& match) {
  std::vector<const util::JsonValue*> out;
  for (const util::JsonValue& sample : doc[family]["samples"].items()) {
    const util::JsonValue& labels = sample["labels"];
    if (std::all_of(match.begin(), match.end(), [&](const auto& m) {
          const util::JsonValue* v = labels.find(m.first);
          return v != nullptr && v->as_string() == m.second;
        })) {
      out.push_back(&sample);
    }
  }
  return out;
}

std::string render_tracez(const std::vector<obs::TraceEvent>& events) {
  util::JsonWriter w;
  w.begin_object();
  w.field("events_retained", static_cast<uint64_t>(events.size()));
  w.key("events").begin_array();
  for (const auto& e : events) {
    w.begin_object()
        .field("t", e.t)
        .field("request_id", e.request_id)
        .field("seq", e.seq)
        .field("event", obs::trace_event_name(e.kind))
        .field("class", static_cast<uint64_t>(e.level))
        .field("detail", static_cast<uint64_t>(e.detail))
        .end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

AdminServer::AdminServer(uint16_t port, StatusFn status, TraceFn trace)
    : status_(std::move(status)), trace_(std::move(trace)) {
  http_ = std::make_unique<HttpServer>(
      reactor_, port, [](const http::Request&, HttpServer::Responder respond) {
        respond(http::make_response(404, "not found\n"));
      });
  port_ = http_->port();
  http_->route("/healthz",
               [](const http::Request&, HttpServer::Responder respond) {
                 respond(http::make_response(200, "ok\n"));
               });
  http_->route("/metrics",
               [this](const http::Request&, HttpServer::Responder respond) {
                 FederationFn fed = federation_source();
                 FederationStatus fed_status;
                 if (fed) fed_status = fed();
                 http::Response resp = http::make_response(
                     200, render_prometheus(status_(),
                                            fed ? &fed_status : nullptr));
                 resp.headers.set("Content-Type",
                                  "text/plain; version=0.0.4");
                 respond(std::move(resp));
               });
  http_->route("/statusz",
               [this](const http::Request&, HttpServer::Responder respond) {
                 FederationFn fed = federation_source();
                 FederationStatus fed_status;
                 if (fed) fed_status = fed();
                 http::Response resp = http::make_response(
                     200, render_statusz(status_(),
                                         fed ? &fed_status : nullptr));
                 resp.headers.set("Content-Type", "application/json");
                 respond(std::move(resp));
               });
  http_->route("/tracez",
               [this](const http::Request&, HttpServer::Responder respond) {
                 http::Response resp =
                     http::make_response(200, render_tracez(trace_()));
                 resp.headers.set("Content-Type", "application/json");
                 respond(std::move(resp));
               });
  thread_ = std::thread([this]() { reactor_.run(); });
}

AdminServer::~AdminServer() {
  reactor_.stop();
  if (thread_.joinable()) thread_.join();
}

void AdminServer::set_federation(FederationFn federation) {
  std::lock_guard<std::mutex> lock(federation_mu_);
  federation_ = std::move(federation);
}

AdminServer::FederationFn AdminServer::federation_source() {
  std::lock_guard<std::mutex> lock(federation_mu_);
  return federation_;
}

}  // namespace sbroker::net
