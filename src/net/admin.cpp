#include "net/admin.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "http/message.h"
#include "util/json.h"

namespace sbroker::net {
namespace {

/// Cumulative upper bounds (seconds) of the Prometheus exposition ladder.
/// Coarser than the native log-linear buckets; count_le() projects onto it.
constexpr double kLeLadder[] = {0.0005, 0.001, 0.0025, 0.005, 0.01,
                                0.025,  0.05,  0.1,    0.25,  0.5,
                                1.0,    2.5,   5.0,    10.0};

void append_counter(std::string& out, const char* name, const char* help) {
  out += "# HELP ";
  out += name;
  out += ' ';
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += " counter\n";
}

void append_gauge(std::string& out, const char* name, const char* help) {
  out += "# HELP ";
  out += name;
  out += ' ';
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += " gauge\n";
}

void append_sample(std::string& out, const char* name,
                   const std::string& labels, double value) {
  std::ostringstream line;
  line << name;
  if (!labels.empty()) line << '{' << labels << '}';
  line << ' ' << value << '\n';
  out += line.str();
}

void append_sample(std::string& out, const char* name,
                   const std::string& labels, uint64_t value) {
  out += name;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  out += ' ';
  out += std::to_string(value);
  out += '\n';
}

/// Writes {"count":..,"mean":..,"p50":..,"p95":..,"p99":..,"max":..}.
void write_histogram_summary(util::JsonWriter& w,
                             const obs::LatencyHistogram& h) {
  w.begin_object()
      .field("count", h.count())
      .field("mean", h.mean_seconds())
      .field("p50", h.p50())
      .field("p95", h.p95())
      .field("p99", h.p99())
      .field("max", h.max_seconds())
      .field("overflow", h.overflow_count())
      .end_object();
}

/// Appends the sbroker_federation_* families (see render_prometheus).
void append_federation_prometheus(std::string& out,
                                  const FederationStatus& fed) {
  append_gauge(out, "sbroker_federation_node",
               "This node's id within the federation.");
  append_sample(out, "sbroker_federation_node", "",
                static_cast<uint64_t>(fed.node_id));
  append_gauge(out, "sbroker_federation_nodes", "Federation size.");
  append_sample(out, "sbroker_federation_nodes", "",
                static_cast<uint64_t>(fed.nodes));
  append_gauge(out, "sbroker_federation_ring_share",
               "Fraction of the key space this node owns on the ring.");
  append_sample(out, "sbroker_federation_ring_share", "", fed.ring_share);
  append_gauge(out, "sbroker_federation_remote_pressure",
               "Tier-wide load from gossip entering admission.");
  append_sample(out, "sbroker_federation_remote_pressure", "",
                fed.remote_pressure);

  struct Family {
    const char* name;
    const char* help;
    uint64_t value;
  };
  const Family kFamilies[] = {
      {"sbroker_federation_forwards_sent_total",
       "Cache misses forwarded to their ring owner.", fed.forwards_sent},
      {"sbroker_federation_forward_replies_total",
       "Owner answers relayed back to clients.", fed.forward_replies},
      {"sbroker_federation_forward_fails_total",
       "Forwards failed over to a local fetch.", fed.forward_fails},
      {"sbroker_federation_fetches_served_total",
       "Peer fetches this node answered as owner.", fed.fetches_served},
      {"sbroker_federation_pushes_sent_total",
       "Hot-key replication pushes sent (per peer).", fed.pushes_sent},
      {"sbroker_federation_pushes_received_total",
       "Hot-key replication pushes installed.", fed.pushes_received},
      {"sbroker_federation_gossip_sent_total",
       "Gossip frames sent (per peer).", fed.gossip_sent},
      {"sbroker_federation_gossip_received_total",
       "Gossip frames folded into the global view.", fed.gossip_received},
      {"sbroker_federation_gossip_rounds_total",
       "Gossip broadcast rounds completed.", fed.gossip_rounds},
  };
  for (const auto& fam : kFamilies) {
    append_counter(out, fam.name, fam.help);
    append_sample(out, fam.name, "", fam.value);
  }

  append_gauge(out, "sbroker_federation_peer_connected",
               "1 when any shard holds a live channel to the peer.");
  append_gauge(out, "sbroker_federation_peer_fresh",
               "1 when the peer gossiped within the staleness window.");
  append_gauge(out, "sbroker_federation_peer_outstanding",
               "Peer's last gossiped outstanding-request count.");
  append_counter(out, "sbroker_federation_peer_fetches_total",
                 "Peer fetches sent to the peer.");
  append_counter(out, "sbroker_federation_peer_fetch_fails_total",
                 "Peer exchanges failed (close or timeout).");
  append_counter(out, "sbroker_federation_peer_drops_total",
                 "Sends refused while the peer's channel was down.");
  append_counter(out, "sbroker_federation_peer_dials_total",
                 "Connection attempts to the peer.");
  for (const auto& p : fed.peers) {
    if (p.self) continue;
    std::string labels = "peer=\"" + std::to_string(p.node) + "\"";
    append_sample(out, "sbroker_federation_peer_connected", labels,
                  static_cast<uint64_t>(p.connected ? 1 : 0));
    append_sample(out, "sbroker_federation_peer_fresh", labels,
                  static_cast<uint64_t>(p.fresh ? 1 : 0));
    append_sample(out, "sbroker_federation_peer_outstanding", labels,
                  static_cast<uint64_t>(p.outstanding));
    append_sample(out, "sbroker_federation_peer_fetches_total", labels,
                  p.fetches);
    append_sample(out, "sbroker_federation_peer_fetch_fails_total", labels,
                  p.fetch_fails);
    append_sample(out, "sbroker_federation_peer_drops_total", labels, p.drops);
    append_sample(out, "sbroker_federation_peer_dials_total", labels, p.dials);
  }
}

/// Writes the /statusz "federation" block.
void write_federation_statusz(util::JsonWriter& w,
                              const FederationStatus& fed) {
  w.key("federation").begin_object();
  w.field("node_id", static_cast<uint64_t>(fed.node_id))
      .field("nodes", static_cast<uint64_t>(fed.nodes))
      .field("vnodes", static_cast<uint64_t>(fed.vnodes))
      .field("ring_share", fed.ring_share)
      .field("remote_pressure", fed.remote_pressure)
      .field("forwards_sent", fed.forwards_sent)
      .field("forward_replies", fed.forward_replies)
      .field("forward_fails", fed.forward_fails)
      .field("fetches_served", fed.fetches_served)
      .field("pushes_sent", fed.pushes_sent)
      .field("pushes_received", fed.pushes_received)
      .field("gossip_sent", fed.gossip_sent)
      .field("gossip_received", fed.gossip_received)
      .field("gossip_rounds", fed.gossip_rounds)
      .field("view_updates", fed.view_updates);
  w.key("peers").begin_array();
  for (const auto& p : fed.peers) {
    w.begin_object()
        .field("node", static_cast<uint64_t>(p.node))
        .field("identity", p.identity)
        .field("self", p.self);
    if (!p.self) {
      w.field("connected", p.connected)
          .field("fresh", p.fresh)
          .field("outstanding", static_cast<uint64_t>(p.outstanding))
          .field("threshold", p.threshold)
          .field("overloaded", p.overloaded)
          .field("fetches", p.fetches)
          .field("fetch_fails", p.fetch_fails)
          .field("pushes", p.pushes)
          .field("gossips", p.gossips)
          .field("drops", p.drops)
          .field("dials", p.dials);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_class_counters(util::JsonWriter& w,
                          const core::BrokerMetrics::ClassCounters& c) {
  w.field("issued", c.issued)
      .field("forwarded", c.forwarded)
      .field("dropped", c.dropped)
      .field("cache_hits", c.cache_hits)
      .field("completed", c.completed)
      .field("errors", c.errors)
      .field("deadline_misses", c.deadline_misses)
      .field("lifo_sheds", c.lifo_sheds)
      .field("retries", c.retries)
      .field("drop_ratio", c.drop_ratio());
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

std::string render_prometheus(const std::vector<ShardStatus>& shards,
                              const FederationStatus* federation) {
  // Fold counters/histograms across shards first; per-shard gauges follow.
  int num_levels = 1;
  for (const auto& s : shards) {
    num_levels = std::max(num_levels, s.metrics.num_levels());
  }
  core::BrokerMetrics metrics(num_levels);
  obs::BrokerObserver observer(obs::ObsConfig{false, 0}, num_levels);
  size_t outstanding = 0;
  for (const auto& s : shards) {
    metrics.merge(s.metrics);
    observer.merge(s.obs);
    outstanding += s.outstanding;
  }

  std::string out;
  struct CounterFamily {
    const char* name;
    const char* help;
    uint64_t core::BrokerMetrics::ClassCounters::* field;
  };
  static const CounterFamily kFamilies[] = {
      {"sbroker_requests_total", "Requests submitted, by QoS class.",
       &core::BrokerMetrics::ClassCounters::issued},
      {"sbroker_forwarded_total", "Requests forwarded to a backend.",
       &core::BrokerMetrics::ClassCounters::forwarded},
      {"sbroker_dropped_total", "Requests shed (admission, saturation, deadline).",
       &core::BrokerMetrics::ClassCounters::dropped},
      {"sbroker_cache_hits_total", "Requests served from the result cache.",
       &core::BrokerMetrics::ClassCounters::cache_hits},
      {"sbroker_completed_total", "Replies delivered, any fidelity.",
       &core::BrokerMetrics::ClassCounters::completed},
      {"sbroker_errors_total", "Backend failures surfaced to clients.",
       &core::BrokerMetrics::ClassCounters::errors},
      {"sbroker_deadline_misses_total", "Deadline-expired sheds.",
       &core::BrokerMetrics::ClassCounters::deadline_misses},
      {"sbroker_lifo_sheds_total",
       "Deadline sheds taken while the class queue ran LIFO.",
       &core::BrokerMetrics::ClassCounters::lifo_sheds},
      {"sbroker_retries_total", "Broker-level re-dispatches.",
       &core::BrokerMetrics::ClassCounters::retries},
  };
  for (const auto& fam : kFamilies) {
    append_counter(out, fam.name, fam.help);
    for (int level = 1; level <= num_levels; ++level) {
      append_sample(out, fam.name, "class=\"" + std::to_string(level) + "\"",
                    metrics.at(level).*fam.field);
    }
  }

  append_gauge(out, "sbroker_outstanding",
               "Requests admitted and not yet answered.");
  append_sample(out, "sbroker_outstanding", "", static_cast<uint64_t>(outstanding));
  append_gauge(out, "sbroker_shards", "Broker reactor shards.");
  append_sample(out, "sbroker_shards", "",
                static_cast<uint64_t>(shards.size()));

  append_counter(out, "sbroker_transport_connections_opened_total",
                 "Physical backend connection setups.");
  append_sample(out, "sbroker_transport_connections_opened_total", "",
                metrics.transport.connections_opened);
  append_counter(out, "sbroker_transport_timeouts_total",
                 "Backend exchanges failed on the transport deadline.");
  append_sample(out, "sbroker_transport_timeouts_total", "",
                metrics.transport.timeouts);
  append_counter(out, "sbroker_lifecycle_cancellations_total",
                 "In-flight exchanges abandoned at deadline expiry.");
  append_sample(out, "sbroker_lifecycle_cancellations_total", "",
                metrics.lifecycle.cancellations);
  append_counter(out, "sbroker_lifecycle_ejections_total",
                 "Replica ejections.");
  append_sample(out, "sbroker_lifecycle_ejections_total", "",
                metrics.lifecycle.ejections);
  append_counter(out, "sbroker_coalesced_waiters_total",
                 "Misses attached to an in-flight identical fetch.");
  append_sample(out, "sbroker_coalesced_waiters_total", "",
                metrics.flight.coalesced_waiters);
  append_counter(out, "sbroker_swr_hits_total",
                 "Stale results served within the revalidation grace window.");
  append_sample(out, "sbroker_swr_hits_total", "", metrics.flight.swr_hits);
  append_counter(out, "sbroker_refreshes_total",
                 "Background revalidation fetches issued.");
  append_sample(out, "sbroker_refreshes_total", "", metrics.flight.refreshes);
  append_counter(out, "sbroker_negative_hits_total",
                 "Errors answered from the negative cache.");
  append_sample(out, "sbroker_negative_hits_total", "",
                metrics.flight.negative_hits);
  append_counter(out, "sbroker_flight_promotions_total",
                 "Waiters promoted to fetch leader after a dead fetch.");
  append_sample(out, "sbroker_flight_promotions_total", "",
                metrics.flight.promotions);
  append_counter(out, "sbroker_overload_evals_total",
                 "Overload-feedback intervals that carried enough samples.");
  append_sample(out, "sbroker_overload_evals_total", "",
                metrics.overload.evals);
  append_counter(out, "sbroker_overload_increases_total",
                 "Additive admission-threshold raises.");
  append_sample(out, "sbroker_overload_increases_total", "",
                metrics.overload.increases);
  append_counter(out, "sbroker_overload_decreases_total",
                 "Multiplicative admission-threshold cuts.");
  append_sample(out, "sbroker_overload_decreases_total", "",
                metrics.overload.decreases);
  append_counter(out, "sbroker_overload_enters_total",
                 "Overload-mode entries (hysteresis applied).");
  append_sample(out, "sbroker_overload_enters_total", "",
                metrics.overload.enters);
  append_counter(out, "sbroker_overload_exits_total",
                 "Overload-mode exits (hysteresis applied).");
  append_sample(out, "sbroker_overload_exits_total", "",
                metrics.overload.exits);

  out +=
      "# HELP sbroker_latency_seconds Request latency by lifecycle stage and "
      "QoS class.\n# TYPE sbroker_latency_seconds histogram\n";
  for (size_t stage = 0; stage < obs::kNumStages; ++stage) {
    for (int level = 1; level <= num_levels; ++level) {
      const obs::LatencyHistogram& h =
          observer.histogram(level, static_cast<obs::Stage>(stage));
      std::string base = std::string("stage=\"") +
                         obs::stage_name(static_cast<obs::Stage>(stage)) +
                         "\",class=\"" + std::to_string(level) + "\"";
      for (double le : kLeLadder) {
        std::ostringstream labels;
        labels << base << ",le=\"" << le << "\"";
        append_sample(out, "sbroker_latency_seconds_bucket", labels.str(),
                      h.count_le(le));
      }
      append_sample(out, "sbroker_latency_seconds_bucket",
                    base + ",le=\"+Inf\"", h.count());
      append_sample(out, "sbroker_latency_seconds_sum", base,
                    h.sum_seconds());
      append_sample(out, "sbroker_latency_seconds_count", base, h.count());
    }
  }

  append_gauge(out, "sbroker_admission_threshold",
               "Live effective admission threshold per shard.");
  append_gauge(out, "sbroker_overload_mode",
               "1 while the shard's controller declares overload "
               "(2 when the LIFO queue discipline is also active).");
  append_gauge(out, "sbroker_shard_load_state",
               "Hot-spot classification per shard (0 normal, 1 warm, 2 hot).");
  append_counter(out, "sbroker_trace_events_total",
                 "Flight-recorder events written per shard.");
  append_counter(out, "sbroker_trace_events_dropped_total",
                 "Flight-recorder events lost to ring wraparound.");
  append_gauge(out, "sbroker_replica_outstanding",
               "In-flight exchanges per backend replica.");
  append_gauge(out, "sbroker_replica_ejected",
               "1 when the balancer has ejected the replica.");
  append_counter(out, "sbroker_replica_picks_total",
                 "Requests the balancer has routed to the replica.");
  append_gauge(out, "sbroker_replica_ewma_seconds",
               "Peak-decaying response-time EWMA per replica as of its last "
               "observation (0 = no sample).");
  for (const auto& s : shards) {
    std::string shard_label = "shard=\"" + std::to_string(s.shard) + "\"";
    append_sample(out, "sbroker_admission_threshold", shard_label,
                  s.admission_threshold);
    append_sample(out, "sbroker_overload_mode", shard_label,
                  static_cast<uint64_t>(s.lifo_active ? 2
                                        : s.overload_mode ? 1
                                                          : 0));
    append_sample(out, "sbroker_shard_load_state", shard_label,
                  static_cast<uint64_t>(s.load_state));
    append_sample(out, "sbroker_trace_events_total", shard_label,
                  s.trace_recorded);
    append_sample(out, "sbroker_trace_events_dropped_total", shard_label,
                  s.trace_dropped);
    for (const auto& r : s.replicas) {
      std::string labels =
          shard_label + ",replica=\"" + std::to_string(r.index) + "\"";
      append_sample(out, "sbroker_replica_outstanding", labels,
                    static_cast<uint64_t>(r.outstanding));
      append_sample(out, "sbroker_replica_ejected", labels,
                    static_cast<uint64_t>(r.ejected ? 1 : 0));
      append_sample(out, "sbroker_replica_picks_total", labels, r.picks);
      append_sample(out, "sbroker_replica_ewma_seconds", labels,
                    r.ewma_ms * 1e-3);
    }
  }
  if (federation != nullptr) append_federation_prometheus(out, *federation);
  return out;
}

std::string render_statusz(const std::vector<ShardStatus>& shards,
                           const FederationStatus* federation) {
  int num_levels = 1;
  for (const auto& s : shards) {
    num_levels = std::max(num_levels, s.metrics.num_levels());
  }
  core::BrokerMetrics metrics(num_levels);
  obs::BrokerObserver observer(obs::ObsConfig{false, 0}, num_levels);
  size_t outstanding = 0;
  for (const auto& s : shards) {
    metrics.merge(s.metrics);
    observer.merge(s.obs);
    outstanding += s.outstanding;
  }

  util::JsonWriter w;
  w.begin_object();
  w.field("shards", static_cast<uint64_t>(shards.size()));
  w.field("outstanding", static_cast<uint64_t>(outstanding));

  w.key("classes").begin_array();
  for (int level = 1; level <= num_levels; ++level) {
    w.begin_object().field("class", level);
    write_class_counters(w, metrics.at(level));
    w.key("latency").begin_object();
    for (size_t stage = 0; stage < obs::kNumStages; ++stage) {
      w.key(obs::stage_name(static_cast<obs::Stage>(stage)));
      write_histogram_summary(
          w, observer.histogram(level, static_cast<obs::Stage>(stage)));
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();

  w.key("stages").begin_object();
  for (size_t stage = 0; stage < obs::kNumStages; ++stage) {
    w.key(obs::stage_name(static_cast<obs::Stage>(stage)));
    write_histogram_summary(
        w, observer.merged_histogram(static_cast<obs::Stage>(stage)));
  }
  w.end_object();

  w.key("transport")
      .begin_object()
      .field("calls", metrics.transport.calls)
      .field("connections_opened", metrics.transport.connections_opened)
      .field("flushes", metrics.transport.flushes)
      .field("requests_written", metrics.transport.requests_written)
      .field("rejections", metrics.transport.rejections)
      .field("retries", metrics.transport.retries)
      .field("timeouts", metrics.transport.timeouts)
      .field("cancels", metrics.transport.cancels)
      .field("peak_in_flight", metrics.transport.peak_in_flight)
      .end_object();
  w.key("lifecycle")
      .begin_object()
      .field("cancellations", metrics.lifecycle.cancellations)
      .field("late_completions", metrics.lifecycle.late_completions)
      .field("ejections", metrics.lifecycle.ejections)
      .field("recoveries", metrics.lifecycle.recoveries)
      .field("probes", metrics.lifecycle.probes)
      .end_object();
  w.key("flight")
      .begin_object()
      .field("coalesced_waiters", metrics.flight.coalesced_waiters)
      .field("swr_hits", metrics.flight.swr_hits)
      .field("refreshes", metrics.flight.refreshes)
      .field("negative_hits", metrics.flight.negative_hits)
      .field("promotions", metrics.flight.promotions)
      .end_object();
  w.key("overload")
      .begin_object()
      .field("evals", metrics.overload.evals)
      .field("increases", metrics.overload.increases)
      .field("decreases", metrics.overload.decreases)
      .field("enters", metrics.overload.enters)
      .field("exits", metrics.overload.exits)
      .end_object();

  w.key("per_shard").begin_array();
  for (const auto& s : shards) {
    w.begin_object()
        .field("shard", static_cast<uint64_t>(s.shard))
        .field("policy", s.policy)
        .field("outstanding", static_cast<uint64_t>(s.outstanding))
        .field("load_state", core::load_state_name(s.load_state))
        .field("trace_recorded", s.trace_recorded)
        .field("trace_dropped", s.trace_dropped)
        .field("overload_policy", s.overload_policy)
        .field("admission_threshold", s.admission_threshold)
        .field("overload_mode", s.overload_mode)
        .field("lifo_active", s.lifo_active);
    w.key("replicas").begin_array();
    for (const auto& r : s.replicas) {
      w.begin_object()
          .field("replica", static_cast<uint64_t>(r.index))
          .field("outstanding", static_cast<uint64_t>(r.outstanding))
          .field("picks", r.picks)
          .field("ejected", r.ejected)
          .field("ewma_ms", r.ewma_ms)
          .end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  if (federation != nullptr) write_federation_statusz(w, *federation);
  w.end_object();
  return w.str();
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
