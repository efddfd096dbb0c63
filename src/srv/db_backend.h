// Simulated database backend server.
//
// Models the clustering-experiment backend (paper Figure 6): an Apache-like
// bounded worker pool in front of a MySQL-like database (the SimServer
// skeleton). An admitted call executes its payload against the in-memory
// engine; the service time comes from the cost model, shaped by the
// replica's ServiceProfile.
//
// Payload format: one or more SQL statements (the db/query.h subset) joined
// by the cluster record separator (core::kRecordSep). Each statement runs
// once and the result texts are joined with the record separator, so the
// broker can split per-member results exactly. Parse/execution errors fail
// the whole call (ok=false) with a diagnostic payload.
#pragma once

#include <memory>
#include <string>

#include "db/cost_model.h"
#include "db/database.h"
#include "srv/service_profile.h"
#include "srv/sim_server.h"

namespace sbroker::srv {

struct DbBackendConfig {
  size_t capacity = 5;          ///< simultaneous requests (paper: "at most 5")
  size_t queue_limit = SIZE_MAX;
  sim::Link::Params link = sim::lan_profile();
  double connection_setup = 0.010;  ///< TCP+auth handshake when not pooled
  db::CostModel cost;
  uint64_t link_seed = 11;
  /// Heterogeneity: shapes this replica's service times (identity default).
  ServiceProfile profile;
};

class SimDbBackend : public SimServer {
 public:
  /// `db` must outlive the backend.
  SimDbBackend(sim::Simulation& sim, db::Database& db, DbBackendConfig config);

  void invoke(const Call& call, Completion done) override;
  void invoke(const Call& call, const core::CancelTokenPtr& token,
              Completion done) override;

  uint64_t stalls() const { return stalls_; }
  uint64_t cancels() const { return cancels_; }

  /// Failure injection: a stalled backend consumes requests and never
  /// replies — the half-open failure mode deadlines and cancel tokens
  /// exist for (a downed link at least fails fast).
  void set_stalled(bool stalled) { stalled_ = stalled; }

 private:
  Execution execute(const std::string& payload) override;

  db::Database& db_;
  DbBackendConfig config_;
  util::Rng profile_rng_;
  uint64_t stalls_ = 0;
  uint64_t cancels_ = 0;
  bool stalled_ = false;
};

}  // namespace sbroker::srv
