// Simulated CGI backend server with bounded processing time.
//
// The differentiation testbed (paper Figure 8): "The backend services
// provided by each backend servers are CGI requests with bounded processing
// time. The processing time of each of the services is 1, 2 and 3 seconds at
// the backend servers 1, 2 and 3. ... The maximum number of server processes
// in each of the backend Web servers is set to be 5, therefore only 5
// requests can be processed simultaneously and the rests are queued."
//
// The server is the SimServer skeleton; the reply body is a canned page
// derived from the payload. Batched payloads (record-separated) cost
// `processing_time` per record, serialized in one worker, mirroring the
// clustered-script behaviour.
#pragma once

#include <string>

#include "srv/sim_server.h"

namespace sbroker::srv {

struct CgiBackendConfig {
  double processing_time = 1.0;  ///< seconds per CGI request
  size_t capacity = 5;           ///< MaxClients
  size_t queue_limit = SIZE_MAX;
  sim::Link::Params link = sim::lan_profile();
  double connection_setup = 0.010;
  uint64_t link_seed = 21;
};

class SimCgiBackend : public SimServer {
 public:
  SimCgiBackend(sim::Simulation& sim, std::string name, CgiBackendConfig config);

 private:
  Execution execute(const std::string& payload) override;

  std::string name_;
  double processing_time_;
};

}  // namespace sbroker::srv
