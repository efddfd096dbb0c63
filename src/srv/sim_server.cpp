#include "srv/sim_server.h"

#include "util/rng.h"

namespace sbroker::srv {

SimServer::SimServer(sim::Simulation& sim, size_t capacity, size_t queue_limit,
                     const sim::Link::Params& link, double connection_setup,
                     uint64_t link_seed)
    : sim_(sim),
      connection_setup_(connection_setup),
      station_(sim, capacity, queue_limit),
      request_link_(sim, link, util::Rng(util::derive_seed(link_seed, 0))),
      response_link_(sim, link, util::Rng(util::derive_seed(link_seed, 1))) {}

void SimServer::invoke(const Call& call, Completion done) {
  ++calls_;
  // A downed link loses the request; surface it as a failure so the broker
  // can answer the client instead of leaking the pending entry.
  if (request_link_.is_down()) {
    ++failures_;
    sim_.after(0.0, [this, done = std::move(done)]() { done(sim_.now(), false, "link down"); });
    return;
  }
  double setup = call.needs_connection_setup ? connection_setup_ : 0.0;
  request_link_.deliver([this, payload = call.payload, setup,
                         done = std::move(done)]() mutable {
    if (!station_.would_accept()) {
      ++failures_;
      respond(false, "backend queue full", std::move(done));
      return;
    }
    Execution exec = execute(payload);
    if (!exec.ok) ++failures_;
    station_.submit(setup + exec.service_time,
                    [this, ok = exec.ok, reply = std::move(exec.reply),
                     done = std::move(done)]() mutable {
                      respond(ok, std::move(reply), std::move(done));
                    });
  });
}

void SimServer::respond(bool ok, std::string reply, Completion done) {
  if (response_link_.is_down()) {
    // The reply is lost on the wire; fail the call so the caller's pending
    // state resolves instead of hanging forever.
    sim_.after(0.0, [this, done = std::move(done)]() {
      done(sim_.now(), false, "response link down");
    });
    return;
  }
  response_link_.deliver([this, ok, reply = std::move(reply),
                          done = std::move(done)]() mutable {
    done(sim_.now(), ok, reply);
  });
}

}  // namespace sbroker::srv
