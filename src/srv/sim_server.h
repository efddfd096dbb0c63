// Simulated backend server: the transport skeleton every Sim backend shares.
//
// The paper's backends (Figures 1, 6 and 8) are all one kind of server:
// Apache-style `MaxClients` workers in front of a database, a CGI script, a
// directory or a mail store. A call travels the request link; on arrival it
// is refused with "backend queue full" when the worker pool and its FIFO
// queue (a sim::BoundedStation) are full, otherwise it executes against the
// store, occupies one worker for its service time (plus the connection
// setup when the pool opened a fresh connection), and the reply travels the
// response link back. A downed link fails the call instead of losing it, so
// the caller's pending state always resolves.
//
// Subclasses supply only execute(): what the payload does to their store
// and how long a worker spends on it. Refused calls never execute.
#pragma once

#include <cstdint>
#include <string>

#include "core/backend.h"
#include "sim/link.h"
#include "sim/simulation.h"
#include "sim/station.h"

namespace sbroker::srv {

class SimServer : public core::Backend {
 public:
  /// `capacity` workers with up to `queue_limit` queued calls; both links
  /// use `link`, seeded derive_seed(link_seed, 0) and (link_seed, 1).
  SimServer(sim::Simulation& sim, size_t capacity, size_t queue_limit,
            const sim::Link::Params& link, double connection_setup,
            uint64_t link_seed);
  /// Scheduled events hold `this`.
  SimServer(const SimServer&) = delete;
  SimServer& operator=(const SimServer&) = delete;

  void invoke(const Call& call, Completion done) override;

  uint64_t calls() const { return calls_; }
  /// Calls answered ok=false: link down, queue full or a failed execution.
  uint64_t failures() const { return failures_; }

  /// Failure injection: take the network paths up or down mid-run.
  sim::Link& request_link() { return request_link_; }
  sim::Link& response_link() { return response_link_; }

 protected:
  struct Execution {
    bool ok = false;
    std::string reply;
    double service_time = 0.0;  ///< worker seconds, before connection setup
  };

  /// Runs an admitted call's payload against the store.
  virtual Execution execute(const std::string& payload) = 0;

  sim::Simulation& sim_;
  uint64_t calls_ = 0;

 private:
  /// Sends the reply over the response link, or fails the call when that
  /// link is down.
  void respond(bool ok, std::string reply, Completion done);

  double connection_setup_;
  sim::BoundedStation station_;
  sim::Link request_link_;
  sim::Link response_link_;
  uint64_t failures_ = 0;
};

}  // namespace sbroker::srv
