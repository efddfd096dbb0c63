#include "net/sharded_daemon.h"

#include <algorithm>
#include <future>
#include <utility>

#include "util/rng.h"

namespace sbroker::net {

ShardedBrokerDaemon::ShardedBrokerDaemon(std::string name,
                                         ShardedBrokerDaemonConfig config)
    : name_(std::move(name)), config_(std::move(config)) {
  if (config_.shards == 0) config_.shards = 1;
  // Salt the shared cache's TTL jitter from this daemon's run seed: two
  // daemon instances (federation members) must not expire the same hot key
  // in lockstep.
  cache_ = std::make_shared<core::ResultCache>(
      config_.broker.cache_capacity, config_.broker.cache_ttl,
      kCacheStripes, config_.broker.cache_tuning,
      core::ttl_salt(config_.broker.rng_seed));
  load_ = std::make_shared<core::LoadTracker>();
  flights_ = std::make_shared<core::FlightTable>(kCacheStripes);

  shards_.reserve(config_.shards);
  for (size_t i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->reactor = std::make_unique<Reactor>();

    core::BrokerConfig broker = config_.broker;
    // De-correlate the shards' random balancer choices. derive_seed, not
    // seed+i: adjacent offsets collide across sibling instances (shard i's
    // seed+1 IS shard i+1's seed), replaying identical streams.
    broker.rng_seed = util::derive_seed(config_.broker.rng_seed, i);
    shard->daemon = std::make_unique<BrokerDaemon>(
        *shard->reactor, name_ + "#" + std::to_string(i), std::move(broker),
        config_.tick_interval);
    shard->daemon->broker().share_cache(cache_);
    shard->daemon->broker().share_load(load_);
    shard->daemon->broker().share_flights(flights_);
    // A flight resolved on another shard wakes this shard's parked waiters:
    // the notify (which may run on the resolving shard's thread) posts a
    // housekeeping poke onto this shard's own reactor.
    shard->daemon->broker().set_flight_notifier(
        [reactor = shard->reactor.get(), daemon = shard->daemon.get()]() {
          reactor->post([daemon]() { daemon->poke(); });
        });
    shards_.push_back(std::move(shard));
  }

  Shard& first = *shards_[0];
  acceptor_ = std::make_unique<TcpListener>(
      *first.reactor, config_.listen_port,
      [this](int fd) { dispatch_accepted(fd); });
  if (config_.enable_udp) {
    udp_ = std::make_unique<UdpSocket>(
        *first.reactor, 0,
        [this, daemon = first.daemon.get()](std::string_view payload,
                                            const sockaddr_in& from) {
          daemon->on_datagram(*udp_, payload, from);
        });
  }

  if (config_.admin.enabled) {
    admin_ = std::make_unique<AdminServer>(
        config_.admin.port, [this]() { return shard_status(); },
        [this]() { return dump_trace(); });
  }
}

ShardedBrokerDaemon::~ShardedBrokerDaemon() {
  stop();
  // Shard 0's pending requests may hold reply sinks that send through the
  // UDP socket, and the socket is registered with shard 0's reactor: drop
  // the daemons first, then the socket, then (with shards_) the reactors.
  for (auto& shard : shards_) shard->daemon.reset();
  udp_.reset();
}

void ShardedBrokerDaemon::dispatch_accepted(int fd) {
  // Runs on shard 0's reactor thread; next_shard_ is only touched here.
  Shard& target = *shards_[next_shard_++ % shards_.size()];
  target.reactor->post(
      [daemon = target.daemon.get(), fd]() { daemon->adopt_client(fd); });
}

void ShardedBrokerDaemon::add_backend(const BackendFactory& factory,
                                      double weight) {
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->daemon->add_backend(factory(*shards_[i]->reactor, i), weight);
  }
}

void ShardedBrokerDaemon::start() {
  if (running_) return;
  running_ = true;
  for (auto& shard : shards_) {
    shard->thread = std::thread([reactor = shard->reactor.get()]() {
      reactor->run();
    });
  }
}

void ShardedBrokerDaemon::stop() {
  // The admin thread snapshots shards through their reactors; kill it first
  // (its destructor joins any in-flight handler) so no snapshot can be left
  // parked in a reactor's post queue when the shard threads exit. Before the
  // early-return: even a never-started daemon owns a live admin thread.
  admin_.reset();
  if (!running_) return;
  for (auto& shard : shards_) shard->reactor->stop();
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  running_ = false;
}

void ShardedBrokerDaemon::read_shards(
    const std::function<void(BrokerDaemon& daemon, size_t shard)>& read) {
  for (size_t i = 0; i < shards_.size(); ++i) {
    BrokerDaemon& daemon = *shards_[i]->daemon;
    if (!running_) {
      read(daemon, i);
      continue;
    }
    std::promise<void> finished;
    auto done = finished.get_future();
    shards_[i]->reactor->post([&read, &finished, &daemon, i]() {
      read(daemon, i);
      finished.set_value();
    });
    done.get();
  }
}

WireStats ShardedBrokerDaemon::aggregate_wire_stats() {
  WireStats total;
  read_shards([&](BrokerDaemon& daemon, size_t) { total.merge(daemon.wire_stats()); });
  return total;
}

core::BrokerMetrics ShardedBrokerDaemon::aggregate_metrics() {
  core::BrokerMetrics total(config_.broker.rules.num_levels);
  // Each snapshot folds the shard's wire-level ChannelStats (connections
  // opened, coalesced flushes, pipeline depth) into metrics.transport.
  read_shards([&](BrokerDaemon& daemon, size_t) {
    core::BrokerMetrics m = daemon.broker().metrics();
    m.transport.merge(daemon.broker().channel_stats());
    total.merge(m);
  });
  return total;
}

std::vector<ShardStatus> ShardedBrokerDaemon::shard_status() {
  std::vector<ShardStatus> out;
  out.reserve(shards_.size());
  read_shards([&](BrokerDaemon& daemon, size_t i) {
    out.push_back(snapshot_shard(daemon.broker(), i));
  });
  return out;
}

std::vector<obs::TraceEvent> ShardedBrokerDaemon::dump_trace() {
  std::vector<obs::TraceEvent> all;
  read_shards([&](BrokerDaemon& daemon, size_t) {
    auto events = daemon.broker().observer().recorder().dump();
    all.insert(all.end(), events.begin(), events.end());
  });
  std::sort(all.begin(), all.end(),
            [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
              if (a.t != b.t) return a.t < b.t;
              return a.seq < b.seq;
            });
  return all;
}

}  // namespace sbroker::net
