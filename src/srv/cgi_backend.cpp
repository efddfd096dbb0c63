#include "srv/cgi_backend.h"

#include "core/cluster.h"

namespace sbroker::srv {

SimCgiBackend::SimCgiBackend(sim::Simulation& sim, std::string name,
                             CgiBackendConfig config)
    : SimServer(sim, config.capacity, config.queue_limit, config.link,
                config.connection_setup, config.link_seed),
      name_(std::move(name)),
      processing_time_(config.processing_time) {}

SimCgiBackend::Execution SimCgiBackend::execute(const std::string& payload) {
  auto records = core::ClusterEngine::split_records(payload);
  Execution exec;
  exec.ok = true;
  for (size_t i = 0; i < records.size(); ++i) {
    if (i) exec.reply += core::kRecordSep;
    exec.reply += "<html>" + name_ + " served " + records[i] + "</html>";
  }
  // One worker runs every record of the batch back to back.
  exec.service_time = processing_time_ * static_cast<double>(records.size());
  return exec;
}

}  // namespace sbroker::srv
