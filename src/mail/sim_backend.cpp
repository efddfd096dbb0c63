#include "mail/sim_backend.h"

#include "core/cluster.h"
#include "util/strings.h"

namespace sbroker::mail {

std::pair<bool, std::string> execute_command(MailStore& store,
                                             const std::string& command) {
  auto fields = util::split(command, '|');
  const std::string_view op = fields.empty() ? std::string_view{} : fields[0];

  if (util::iequals(op, "SEND")) {
    if (fields.size() != 5) return {false, "SEND needs to|from|subject|body"};
    uint64_t id = store.deliver(std::string(fields[1]), std::string(fields[2]),
                                std::string(fields[3]), std::string(fields[4]));
    return {true, "sent " + std::to_string(id)};
  }
  if (util::iequals(op, "LIST")) {
    if (fields.size() != 2) return {false, "LIST needs user"};
    std::string out;
    for (const Header& h : store.list(std::string(fields[1]))) {
      out += std::to_string(h.id) + "\t" + h.from + "\t" + h.subject + "\n";
    }
    return {true, out};
  }
  return {false, "unknown command"};
}

SimMailBackend::SimMailBackend(sim::Simulation& sim, MailStore& store,
                               MailBackendConfig config)
    : SimServer(sim, config.capacity, config.queue_limit, config.link,
                config.connection_setup, config.link_seed),
      store_(store),
      config_(config) {}

SimMailBackend::Execution SimMailBackend::execute(const std::string& payload) {
  Execution exec;
  exec.ok = true;
  uint64_t records = 0;
  uint64_t headers = 0;
  for (const std::string& record : core::ClusterEngine::split_records(payload)) {
    if (++records > 1) exec.reply += core::kRecordSep;
    auto [record_ok, text] = execute_command(store_, record);
    if (!record_ok) exec.ok = false;
    // LIST cost scales with headers rendered (one per line).
    for (char c : text) {
      if (c == '\n') ++headers;
    }
    exec.reply += text;
  }
  exec.service_time = config_.fixed_seconds * static_cast<double>(records) +
                      config_.per_header_listed * static_cast<double>(headers);
  return exec;
}

}  // namespace sbroker::mail
