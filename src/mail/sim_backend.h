// Simulated mail backend server.
//
// Payload protocol (one command per record; fields are '|'-separated so
// subjects and bodies may contain spaces):
//
//   SEND|<to>|<from>|<subject>|<body>      -> "sent <id>"
//   LIST|<user>                            -> "<id>\t<from>\t<subject>" lines
//
// LIST is the inbox listing the intranet portal sends; SEND delivers. Any
// other command fails the record; a failed record fails the whole call,
// matching the other Sim backends. The server is the srv::SimServer
// skeleton, so a command refused by a full queue never runs.
#pragma once

#include <string>

#include "mail/store.h"
#include "srv/sim_server.h"

namespace sbroker::mail {

struct MailBackendConfig {
  size_t capacity = 6;
  size_t queue_limit = SIZE_MAX;
  sim::Link::Params link = sim::lan_profile();
  double connection_setup = 0.012;  ///< SMTP/IMAP-ish handshake
  double fixed_seconds = 0.003;     ///< per command
  double per_header_listed = 0.00005;
  uint64_t link_seed = 51;
};

/// Executes one command against the store. Exposed for tests.
/// Returns {ok, reply text}.
std::pair<bool, std::string> execute_command(MailStore& store, const std::string& command);

class SimMailBackend : public srv::SimServer {
 public:
  /// `store` must outlive the backend.
  SimMailBackend(sim::Simulation& sim, MailStore& store, MailBackendConfig config);

 private:
  Execution execute(const std::string& payload) override;

  MailStore& store_;
  MailBackendConfig config_;
};

}  // namespace sbroker::mail
