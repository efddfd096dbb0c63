#include "srv/db_backend.h"

#include "core/cluster.h"
#include "db/executor.h"
#include "util/rng.h"

namespace sbroker::srv {

SimDbBackend::SimDbBackend(sim::Simulation& sim, db::Database& db,
                           DbBackendConfig config)
    : SimServer(sim, config.capacity, config.queue_limit, config.link,
                config.connection_setup, config.link_seed),
      db_(db),
      config_(config),
      profile_rng_(util::derive_seed(config.link_seed, 2)) {}

SimDbBackend::Execution SimDbBackend::execute(const std::string& payload) {
  Execution result;
  db::ExecStats total;
  total.statements = 0;
  std::string reply;

  try {
    for (const std::string& record : core::ClusterEngine::split_records(payload)) {
      db::ResultSet rs = db::execute_sql(db_, record);
      total.rows_examined += rs.stats.rows_examined;
      total.rows_returned += rs.stats.rows_returned;
      total.statements += 1;
      if (total.statements > 1) reply += core::kRecordSep;
      reply += rs.to_text();
    }
    result.ok = true;
    result.reply = std::move(reply);
    result.service_time = config_.cost.service_time(total);
  } catch (const std::exception& e) {
    result.reply = std::string("query error: ") + e.what();
    // Even a failed query consumed the fixed overhead.
    result.service_time = config_.cost.fixed_seconds;
  }
  result.service_time =
      config_.profile.sample(result.service_time, sim_.now(), profile_rng_);
  return result;
}

void SimDbBackend::invoke(const Call& call, const core::CancelTokenPtr& token,
                          Completion done) {
  if (!token) {
    invoke(call, std::move(done));
    return;
  }
  // Exactly-once arbitration between the normal completion path and the
  // broker's cancel token (fired when every member of the exchange expired).
  struct State {
    bool completed = false;
    Completion done;
  };
  auto state = std::make_shared<State>();
  state->done = std::move(done);
  token->set_callback([this, state]() {
    if (state->completed) return;
    state->completed = true;
    ++cancels_;
    sim_.after(0.0, [this, done = std::move(state->done)]() {
      done(sim_.now(), false, "exchange cancelled");
    });
  });
  if (state->completed) return;  // token was already cancelled
  invoke(call, [state](double t, bool ok, std::string payload) {
    if (state->completed) return;
    state->completed = true;
    state->done(t, ok, std::move(payload));
  });
}

void SimDbBackend::invoke(const Call& call, Completion done) {
  if (!stalled_) {
    SimServer::invoke(call, std::move(done));
    return;
  }
  // Half-open failure: the request is consumed and no reply ever comes.
  // Only a deadline (and its cancel token) resolves the caller.
  ++calls_;
  ++stalls_;
}

}  // namespace sbroker::srv
