// Broker message types.
//
// Web application processes send service brokers small messages carrying
// the query and its QoS specification (paper Section V-B-1); the broker
// answers each with a reply of some fidelity. These are the in-process
// forms of that message pair, shared by the broker core and every ingress.
// The bytes on the wire are net/frame.h frames (TCP, UDP, federation
// peers).
#pragma once

#include <cstdint>
#include <string>

namespace sbroker::http {

/// What the broker did with a request — the "fidelity" of the reply.
/// The paper: "longer the processing time a request undergoes, higher the
/// fidelity it receives"; dropped requests get an immediate low-fidelity
/// message (a cached result when available, else a busy notice).
enum class Fidelity : uint8_t {
  kFull = 0,      ///< forwarded to the backend, fresh result
  kCached = 1,    ///< served from broker cache (possibly stale)
  kBusy = 2,      ///< admission-dropped; "system is busy" notice
  kError = 3,     ///< backend or protocol failure
  kDegraded = 4,  ///< fresh but fidelity-reduced (rewritten under load)
};

const char* fidelity_name(Fidelity f);

struct BrokerRequest {
  uint64_t request_id = 0;
  uint8_t qos_level = 1;      ///< 1..N, higher is more important
  uint64_t txn_id = 0;        ///< 0 = not part of a transaction
  uint8_t txn_step = 0;       ///< 1-based step within the transaction
  uint32_t deadline_ms = 0;   ///< answer-by budget from submit; 0 = none
  std::string payload;        ///< query text (SQL) or request target (URI)
};

struct BrokerReply {
  uint64_t request_id = 0;
  Fidelity fidelity = Fidelity::kFull;
  std::string payload;        ///< result text, cached copy, or notice
};

}  // namespace sbroker::http
