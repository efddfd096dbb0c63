#include "core/cluster.h"

#include <cassert>

namespace sbroker::core {

ClusterEngine::ClusterEngine(ClusterConfig config) : config_(config) {
  assert(config_.degree >= 1);
}

std::optional<Batch> ClusterEngine::add(uint64_t request_id, std::string payload,
                                        double now) {
  if (pending_ids_.empty()) oldest_arrival_ = now;
  pending_ids_.push_back(request_id);
  pending_payloads_.push_back(std::move(payload));
  if (pending_ids_.size() >= config_.degree) return build_batch();
  return std::nullopt;
}

std::optional<Batch> ClusterEngine::flush(double now, bool force) {
  if (pending_ids_.empty()) return std::nullopt;
  if (!force && now - oldest_arrival_ < config_.max_wait) return std::nullopt;
  return build_batch();
}

std::optional<double> ClusterEngine::next_deadline() const {
  if (pending_ids_.empty()) return std::nullopt;
  return oldest_arrival_ + config_.max_wait;
}

Batch ClusterEngine::build_batch() {
  Batch batch;
  batch.member_ids = std::move(pending_ids_);
  batch.member_payloads = std::move(pending_payloads_);
  pending_ids_.clear();
  pending_payloads_.clear();
  ++batches_emitted_;

  batch.combined_payload = join_payloads(batch.member_payloads);
  return batch;
}

std::vector<std::string> ClusterEngine::split_reply(const Batch& batch,
                                                    const std::string& combined_reply) {
  size_t n = batch.member_ids.size();
  if (n == 1) return {combined_reply};

  auto records = split_records(combined_reply);
  if (records.size() == n) return records;
  // Mismatch: deliver the whole reply to everyone rather than dropping.
  return std::vector<std::string>(n, combined_reply);
}

std::string ClusterEngine::join_payloads(const std::vector<std::string>& payloads) {
  std::string out;
  for (size_t i = 0; i < payloads.size(); ++i) {
    if (i) out += kRecordSep;
    out += payloads[i];
  }
  return out;
}

std::vector<std::string> ClusterEngine::split_records(const std::string& joined) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = joined.find(kRecordSep, start);
    if (pos == std::string::npos) {
      out.push_back(joined.substr(start));
      return out;
    }
    out.push_back(joined.substr(start, pos - start));
    start = pos + 1;
  }
}

}  // namespace sbroker::core
