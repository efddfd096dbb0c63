#include "ldap/sim_backend.h"

#include "core/cluster.h"
#include "util/strings.h"

namespace sbroker::ldap {

std::optional<SearchCommand> parse_search(const std::string& payload,
                                          std::string* error) {
  auto fail = [&](const char* what) {
    if (error) *error = what;
    return std::nullopt;
  };

  auto tokens = util::split_skip_empty(payload, ' ');
  if (tokens.empty() || !util::iequals(tokens[0], "SEARCH")) {
    return fail("expected SEARCH command");
  }
  SearchCommand cmd;
  bool have_base = false, have_filter = false;
  for (size_t i = 1; i < tokens.size(); ++i) {
    std::string_view token = tokens[i];
    if (util::starts_with(token, "base=")) {
      cmd.base = std::string(token.substr(5));
      have_base = true;
    } else if (util::starts_with(token, "scope=")) {
      if (!util::iequals(token.substr(6), "one")) return fail("bad scope (expected one)");
    } else if (util::starts_with(token, "filter=")) {
      auto filter = Filter::parse(token.substr(7));
      if (!filter) return fail("malformed filter");
      cmd.filter = *filter;
      have_filter = true;
    } else {
      return fail("unknown SEARCH argument");
    }
  }
  if (!have_base) return fail("missing base=");
  if (!have_filter) return fail("missing filter=");
  return cmd;
}

std::string render_entries(const std::vector<const Entry*>& entries) {
  std::string out;
  for (const Entry* entry : entries) {
    out += entry->dn;
    out += '\t';
    bool first = true;
    for (const auto& [name, value] : entry->attributes) {
      if (!first) out += ';';
      out += name + "=" + value;
      first = false;
    }
    out += '\n';
  }
  return out;
}

SimLdapBackend::SimLdapBackend(sim::Simulation& sim, Directory& dir,
                               LdapBackendConfig config)
    : SimServer(sim, config.capacity, config.queue_limit, config.link,
                config.connection_setup, config.link_seed),
      dir_(dir),
      config_(config) {}

SimLdapBackend::Execution SimLdapBackend::execute(const std::string& payload) {
  // Execute every record of the (possibly batched) payload.
  Execution exec;
  exec.ok = true;
  uint64_t examined = 0;
  uint64_t records = 0;
  for (const std::string& record : core::ClusterEngine::split_records(payload)) {
    if (++records > 1) exec.reply += core::kRecordSep;
    std::string error;
    auto cmd = parse_search(record, &error);
    if (!cmd) {
      exec.ok = false;
      exec.reply += "search error: " + error;
    } else {
      Directory::SearchStats stats;
      exec.reply += render_entries(dir_.search(cmd->base, cmd->filter, &stats));
      examined += stats.entries_examined;
    }
  }
  exec.service_time = config_.fixed_seconds * static_cast<double>(records) +
                      config_.per_entry_examined * static_cast<double>(examined);
  return exec;
}

}  // namespace sbroker::ldap
