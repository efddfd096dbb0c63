// Simulated LDAP backend server.
//
// Speaks a textual search protocol over the broker's payload channel:
//
//   SEARCH base=<dn> [scope=one] filter=(attr=value)
//
// (a one-level search: scope=one is the only scope, and the default) and
// answers one line per matched entry: "<dn>\t<attr>=<value>;...".
// Record-separated batch payloads execute each search and join the results
// with the cluster record separator, like the other Sim backends. The
// server is the srv::SimServer skeleton; service time is fixed overhead +
// per-entry-examined cost (directory servers are traversal-bound).
#pragma once

#include <memory>
#include <string>

#include "ldap/directory.h"
#include "srv/sim_server.h"

namespace sbroker::ldap {

struct LdapBackendConfig {
  size_t capacity = 8;
  size_t queue_limit = SIZE_MAX;
  sim::Link::Params link = sim::lan_profile();
  double connection_setup = 0.008;    ///< bind handshake when not pooled
  double fixed_seconds = 0.002;       ///< decode + dispatch per request
  double per_entry_examined = 0.00002;
  uint64_t link_seed = 41;
};

/// Parses the SEARCH command; nullopt (with a diagnostic in `error`) on
/// malformed input. Exposed for tests.
struct SearchCommand {
  std::string base;
  Filter filter;
};
std::optional<SearchCommand> parse_search(const std::string& payload,
                                          std::string* error = nullptr);

/// Renders matched entries one per line: dn\tattr=value;attr=value...
std::string render_entries(const std::vector<const Entry*>& entries);

class SimLdapBackend : public srv::SimServer {
 public:
  /// `dir` must outlive the backend.
  SimLdapBackend(sim::Simulation& sim, Directory& dir, LdapBackendConfig config);

 private:
  Execution execute(const std::string& payload) override;

  Directory& dir_;
  LdapBackendConfig config_;
};

}  // namespace sbroker::ldap
