// Length-prefixed compact binary framing: the broker's one binary wire
// format, spoken by clients over TCP and UDP and by federation peers.
//
// It is the one protocol on the daemon's main TCP port: a connection whose
// bytes do not start a frame is closed without a reply.
//
// A fixed 8-byte header carries the total section length up front, so a
// receiver does O(1) work per arrival to tell "incomplete" from "complete"
// and the parser hands out zero-copy views into the receive buffer. Over
// UDP each datagram carries exactly one frame.
//
// All integers little-endian. Header (8 bytes, every kind):
//
//   offset  size  field
//   ------  ----  --------------------------------------------------------
//   0       u8    magic 0xB7 (never an ASCII HTTP method letter, so a
//                 stray HTTP client fails on its first byte)
//   1       u8    version (2)
//   2       u8    kind: 1 = request, 2 = reply
//   3       u8    request: QoS class | reply: status (http::Fidelity)
//   4       u32   length of the kind-specific section that follows
//
// Request section (21 fixed bytes, then the query):
//
//   offset  size  field
//   ------  ----  --------------------------------------------------------
//   0       u64   request id
//   8       u32   deadline_ms (answer-by budget; 0 = broker default)
//   12      u64   txn_id (0 = not part of a transaction)
//   20      u8    txn_step (1-based step within the transaction)
//   21      ...   query bytes (rest of the section)
//
// The transaction tag drives the paper's transaction escalation: later
// steps of one transaction are admitted at a boosted QoS class.
//
// Reply section:    u64 request id, u8 flight flags, payload bytes (rest).
//
// Flags on a reply describe how the answer was produced (cache-served,
// degraded rewrite, shed, error).
//
// Federation (src/fed/) rides the same framing on the same port,
// with four broker-to-broker kinds:
//
//   kind 3 kPeerFetch — a non-owner forwarding a cache miss to the key's
//     ring owner. Section layout identical to a request (the deadline_ms
//     field carries the *remaining* budget, so a slow owner cannot strand
//     the client past its original deadline; the transaction tag travels
//     unchanged, so the owner escalates exactly as the forwarder would).
//   kind 4 kPeerReply — the owner's answer; layout identical to a reply.
//   kind 5 kPeerPush  — hot-key replication: u32 key length, key bytes,
//     value bytes (rest). Fire-and-forget, status byte unused.
//   kind 6 kGossip    — periodic load exchange: u32 sender node id,
//     u32 outstanding requests, f64 effective admission threshold (IEEE
//     bits), u8 overload-mode flag. Fire-and-forget.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "http/wire.h"

namespace sbroker::net::frame {

inline constexpr uint8_t kMagic = 0xB7;
inline constexpr uint8_t kVersion = 2;
inline constexpr uint8_t kKindRequest = 1;
inline constexpr uint8_t kKindReply = 2;
inline constexpr uint8_t kKindPeerFetch = 3;
inline constexpr uint8_t kKindPeerReply = 4;
inline constexpr uint8_t kKindPeerPush = 5;
inline constexpr uint8_t kKindGossip = 6;
inline constexpr size_t kHeaderSize = 8;
/// Request section carries id + deadline + transaction tag before the query.
inline constexpr size_t kRequestFixed = 21;
/// Reply section carries id + flags before the payload bytes.
inline constexpr size_t kReplyFixed = 9;
/// Push section carries the key length before the key + value bytes.
inline constexpr size_t kPushFixed = 4;
/// Gossip section is fixed-size: node + outstanding + threshold + mode.
inline constexpr size_t kGossipFixed = 17;
/// Upper bound on the kind-specific section; larger lengths are a protocol
/// error, not a "wait for more bytes" state.
inline constexpr uint32_t kMaxSectionLength = 64u * 1024u * 1024u;

/// Reply flag bits (bitwise OR).
inline constexpr uint8_t kFlagCacheServed = 0x01;  ///< answered from the cache
inline constexpr uint8_t kFlagDegraded = 0x02;     ///< fidelity-reduced rewrite
inline constexpr uint8_t kFlagShed = 0x04;         ///< busy / deadline shed
inline constexpr uint8_t kFlagError = 0x08;        ///< backend or protocol error

/// Decoded request; `query` is a view into the caller's receive buffer and
/// is valid only until that buffer is mutated.
struct Request {
  uint64_t request_id = 0;
  uint8_t qos_level = 1;
  uint32_t deadline_ms = 0;
  std::string_view query;
  uint64_t txn_id = 0;   ///< 0 = not part of a transaction
  uint8_t txn_step = 0;  ///< 1-based step within the transaction
};

/// Decoded reply; `payload` is a view with the same lifetime rule.
struct Reply {
  uint64_t request_id = 0;
  http::Fidelity fidelity = http::Fidelity::kFull;
  uint8_t flags = 0;
  std::string_view payload;
};

/// Decoded hot-key replication push; both views share the receive-buffer
/// lifetime rule.
struct Push {
  std::string_view key;
  std::string_view value;
};

/// Decoded load-gossip frame (fixed-size section, nothing borrowed).
struct Gossip {
  uint32_t node = 0;         ///< sender's node id within the federation
  uint32_t outstanding = 0;  ///< sender's shared outstanding-request count
  double threshold = 0.0;    ///< sender's live effective admission threshold
  bool overloaded = false;   ///< sender's declared overload mode
};

enum class ParseResult {
  kNeedMore,  ///< not enough bytes for a full frame yet
  kFrame,     ///< one frame decoded; *consumed bytes were used
  kError,     ///< malformed (bad magic/version/kind or oversized length)
};

/// Decodes one request frame from the front of `bytes` without copying.
ParseResult parse_request(std::string_view bytes, Request& out, size_t* consumed);

/// Decodes one reply frame from the front of `bytes` without copying.
ParseResult parse_reply(std::string_view bytes, Reply& out, size_t* consumed);

/// Decodes one peer-fetch frame (request layout under kind kPeerFetch).
ParseResult parse_peer_fetch(std::string_view bytes, Request& out, size_t* consumed);

/// Decodes one peer-reply frame (reply layout under kind kPeerReply).
ParseResult parse_peer_reply(std::string_view bytes, Reply& out, size_t* consumed);

/// Decodes one hot-key push frame.
ParseResult parse_push(std::string_view bytes, Push& out, size_t* consumed);

/// Decodes one gossip frame.
ParseResult parse_gossip(std::string_view bytes, Gossip& out, size_t* consumed);

/// Kind byte of the frame at the front of `bytes`; 0 while fewer than three
/// bytes are buffered. The daemon's ingress loop dispatches on this before
/// picking a kind-specific parser.
uint8_t peek_kind(std::string_view bytes);

/// Total frame size announced by a header, or 0 when fewer than kHeaderSize
/// bytes are available (the receiver can size its read-ahead off this).
size_t frame_size(std::string_view bytes);

/// Appends an encoded request frame to `out` (no temporary string).
void encode_request(const Request& request, std::string& out);

/// Appends an encoded reply frame to `out`. The status byte is the fidelity;
/// `flags` travels in the reply section.
void encode_reply(uint64_t request_id, http::Fidelity fidelity, uint8_t flags,
                  std::string_view payload, std::string& out);

/// Appends an encoded peer-fetch frame (request layout, kind kPeerFetch).
void encode_peer_fetch(const Request& request, std::string& out);

/// Appends an encoded peer-reply frame (reply layout, kind kPeerReply).
void encode_peer_reply(uint64_t request_id, http::Fidelity fidelity, uint8_t flags,
                       std::string_view payload, std::string& out);

/// Appends an encoded hot-key push frame.
void encode_push(std::string_view key, std::string_view value, std::string& out);

/// Appends an encoded gossip frame.
void encode_gossip(const Gossip& gossip, std::string& out);

/// Flags a reply should carry for a fidelity (kCacheServed for kCached,
/// kShed for kBusy, ...). The daemon ORs in kFlagDegraded itself.
uint8_t flags_for(http::Fidelity fidelity);

}  // namespace sbroker::net::frame
