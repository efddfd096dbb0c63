// Shared networking defaults.
//
// Every blocking client helper used by tests, examples and the load
// generator bounds its wait with the same default, defined once here, so
// "the client gave up" means the same thing on every transport. A client
// that hits this bound observed a broker timeout; the broker's own deadline
// sheds arrive before it as a busy reply carrying core::kDeadlineExceeded.
#pragma once

namespace sbroker::net {

/// Default wait bound for the blocking client helpers (FrameClient,
/// http_fetch, udp_exchange), milliseconds.
inline constexpr int kDefaultClientTimeoutMs = 5000;

}  // namespace sbroker::net
