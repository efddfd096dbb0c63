// Request clustering engine.
//
// "The service broker in the front-end Web server could gather all the
// requests and rewrite the query command to notify the script to repeat the
// same workload multiple times to achieve clustering" (Section V-A). The
// engine buffers submitted requests and flushes a *batch* when either the
// configured degree is reached or the oldest member has waited past the
// flush deadline. One batch maps to one backend access.
//
// The batch is rewritten by joining the member payloads with the ASCII
// record separator (0x1e). Backends in this repo execute each record and
// join the per-record results the same way, so splitting is exact: the
// backend script runs one statement per member, and the db cost model
// charges per statement. Identical misses never share a batch
// (single-flight parks the repeats on the first fetch).
//
// MGET batching for plain HTTP targets lives in http/mget.h; the broker
// picks it when payloads look like URI targets.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace sbroker::core {

/// ASCII record separator joining batched payloads and batched results.
inline constexpr char kRecordSep = '\x1e';

struct ClusterConfig {
  size_t degree = 1;        ///< members per batch; 1 disables clustering
  double max_wait = 0.05;   ///< seconds the oldest member may wait
};

/// One flushed batch.
struct Batch {
  std::vector<uint64_t> member_ids;       ///< request ids, arrival order
  std::vector<std::string> member_payloads;
  std::string combined_payload;           ///< what goes to the backend
};

class ClusterEngine {
 public:
  explicit ClusterEngine(ClusterConfig config);

  /// Adds a request. Returns a flushed batch when this arrival completed
  /// one, else nullopt (request is buffered).
  std::optional<Batch> add(uint64_t request_id, std::string payload, double now);

  /// Flushes the pending partial batch when its oldest member has waited
  /// past max_wait, or unconditionally when `force`.
  std::optional<Batch> flush(double now, bool force = false);

  /// Time at which the pending batch must be flushed; nullopt when empty.
  std::optional<double> next_deadline() const;

  size_t pending() const { return pending_ids_.size(); }
  const ClusterConfig& config() const { return config_; }
  uint64_t batches_emitted() const { return batches_emitted_; }

  /// Splits a combined backend reply into per-member payloads. `batch` must
  /// be the batch the reply answers. Returns one payload per member; when
  /// the reply does not split cleanly (backend bug or corruption) every
  /// member receives the full reply (degraded but never silent).
  static std::vector<std::string> split_reply(const Batch& batch,
                                              const std::string& combined_reply);

  /// Joins payloads with the record separator (what backends must undo).
  static std::string join_payloads(const std::vector<std::string>& payloads);

  /// Splits a record-separated string. Single segment for sep-free input.
  static std::vector<std::string> split_records(const std::string& joined);

 private:
  Batch build_batch();

  ClusterConfig config_;
  std::vector<uint64_t> pending_ids_;
  std::vector<std::string> pending_payloads_;
  double oldest_arrival_ = 0.0;
  uint64_t batches_emitted_ = 0;
};

}  // namespace sbroker::core
