#include "net/frame.h"

#include <cstring>
#include <initializer_list>

namespace sbroker::net::frame {

namespace {

void store_u32(char* p, uint32_t v) {
  p[0] = static_cast<char>(v & 0xff);
  p[1] = static_cast<char>((v >> 8) & 0xff);
  p[2] = static_cast<char>((v >> 16) & 0xff);
  p[3] = static_cast<char>((v >> 24) & 0xff);
}

void store_u64(char* p, uint64_t v) {
  store_u32(p, static_cast<uint32_t>(v & 0xffffffffu));
  store_u32(p + 4, static_cast<uint32_t>(v >> 32));
}

// Fills the 8-byte header every frame starts with.
void store_header(char* p, uint8_t kind, uint8_t status, uint32_t length) {
  p[0] = static_cast<char>(kMagic);
  p[1] = static_cast<char>(kVersion);
  p[2] = static_cast<char>(kind);
  p[3] = static_cast<char>(status);
  store_u32(p + 4, length);
}

// Appends `parts` back to back with one resize and one copy per part; the
// fixed-size prefix of every frame is built on the stack by the caller.
void append_parts(std::string& out, std::initializer_list<std::string_view> parts) {
  size_t total = 0;
  for (std::string_view part : parts) total += part.size();
  size_t at = out.size();
  out.resize(at + total);
  char* dst = out.data() + at;
  for (std::string_view part : parts) {
    if (!part.empty()) std::memcpy(dst, part.data(), part.size());
    dst += part.size();
  }
}

uint32_t get_u32(const char* p) {
  return static_cast<uint32_t>(static_cast<uint8_t>(p[0])) |
         static_cast<uint32_t>(static_cast<uint8_t>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[3])) << 24;
}

uint64_t get_u64(const char* p) {
  return static_cast<uint64_t>(get_u32(p)) | static_cast<uint64_t>(get_u32(p + 4)) << 32;
}

// Validates the header and either reports the full frame extent or an error.
// On kFrame, `section` points at the kind-specific bytes.
ParseResult parse_header(std::string_view bytes, uint8_t expected_kind,
                         std::string_view& section, size_t* consumed) {
  // Wrong magic is an error as soon as the first byte is visible: waiting
  // for a full header cannot turn a mis-framed stream into a valid one.
  if (!bytes.empty() && static_cast<uint8_t>(bytes[0]) != kMagic) {
    return ParseResult::kError;
  }
  if (bytes.size() < kHeaderSize) return ParseResult::kNeedMore;
  const auto* p = bytes.data();
  if (static_cast<uint8_t>(p[1]) != kVersion) return ParseResult::kError;
  if (static_cast<uint8_t>(p[2]) != expected_kind) return ParseResult::kError;
  uint32_t length = get_u32(p + 4);
  if (length > kMaxSectionLength) return ParseResult::kError;
  if (bytes.size() < kHeaderSize + length) return ParseResult::kNeedMore;
  section = bytes.substr(kHeaderSize, length);
  if (consumed != nullptr) *consumed = kHeaderSize + length;
  return ParseResult::kFrame;
}

// Request and peer-fetch share a section layout; only the kind byte differs.
ParseResult parse_request_like(std::string_view bytes, uint8_t kind, Request& out,
                               size_t* consumed) {
  std::string_view section;
  ParseResult result = parse_header(bytes, kind, section, consumed);
  if (result != ParseResult::kFrame) return result;
  if (section.size() < kRequestFixed) return ParseResult::kError;
  out.qos_level = static_cast<uint8_t>(bytes[3]);
  out.request_id = get_u64(section.data());
  out.deadline_ms = get_u32(section.data() + 8);
  out.txn_id = get_u64(section.data() + 12);
  out.txn_step = static_cast<uint8_t>(section[20]);
  out.query = section.substr(kRequestFixed);
  return ParseResult::kFrame;
}

// Reply and peer-reply likewise differ only in the kind byte.
ParseResult parse_reply_like(std::string_view bytes, uint8_t kind, Reply& out,
                             size_t* consumed) {
  std::string_view section;
  ParseResult result = parse_header(bytes, kind, section, consumed);
  if (result != ParseResult::kFrame) return result;
  if (section.size() < kReplyFixed) return ParseResult::kError;
  uint8_t status = static_cast<uint8_t>(bytes[3]);
  if (status > static_cast<uint8_t>(http::Fidelity::kDegraded)) return ParseResult::kError;
  out.fidelity = static_cast<http::Fidelity>(status);
  out.request_id = get_u64(section.data());
  out.flags = static_cast<uint8_t>(section[8]);
  out.payload = section.substr(kReplyFixed);
  return ParseResult::kFrame;
}

void encode_request_like(uint8_t kind, const Request& request, std::string& out) {
  char fixed[kHeaderSize + kRequestFixed];
  store_header(fixed, kind, request.qos_level,
               static_cast<uint32_t>(kRequestFixed + request.query.size()));
  store_u64(fixed + kHeaderSize, request.request_id);
  store_u32(fixed + kHeaderSize + 8, request.deadline_ms);
  store_u64(fixed + kHeaderSize + 12, request.txn_id);
  fixed[kHeaderSize + 20] = static_cast<char>(request.txn_step);
  append_parts(out, {std::string_view(fixed, sizeof(fixed)), request.query});
}

void encode_reply_like(uint8_t kind, uint64_t request_id, http::Fidelity fidelity,
                       uint8_t flags, std::string_view payload, std::string& out) {
  char fixed[kHeaderSize + kReplyFixed];
  store_header(fixed, kind, static_cast<uint8_t>(fidelity),
               static_cast<uint32_t>(kReplyFixed + payload.size()));
  store_u64(fixed + kHeaderSize, request_id);
  fixed[kHeaderSize + 8] = static_cast<char>(flags);
  append_parts(out, {std::string_view(fixed, sizeof(fixed)), payload});
}

}  // namespace

ParseResult parse_request(std::string_view bytes, Request& out, size_t* consumed) {
  return parse_request_like(bytes, kKindRequest, out, consumed);
}

ParseResult parse_reply(std::string_view bytes, Reply& out, size_t* consumed) {
  return parse_reply_like(bytes, kKindReply, out, consumed);
}

ParseResult parse_peer_fetch(std::string_view bytes, Request& out, size_t* consumed) {
  return parse_request_like(bytes, kKindPeerFetch, out, consumed);
}

ParseResult parse_peer_reply(std::string_view bytes, Reply& out, size_t* consumed) {
  return parse_reply_like(bytes, kKindPeerReply, out, consumed);
}

ParseResult parse_push(std::string_view bytes, Push& out, size_t* consumed) {
  std::string_view section;
  ParseResult result = parse_header(bytes, kKindPeerPush, section, consumed);
  if (result != ParseResult::kFrame) return result;
  if (section.size() < kPushFixed) return ParseResult::kError;
  uint32_t key_len = get_u32(section.data());
  if (key_len > section.size() - kPushFixed) return ParseResult::kError;
  out.key = section.substr(kPushFixed, key_len);
  out.value = section.substr(kPushFixed + key_len);
  return ParseResult::kFrame;
}

ParseResult parse_gossip(std::string_view bytes, Gossip& out, size_t* consumed) {
  std::string_view section;
  ParseResult result = parse_header(bytes, kKindGossip, section, consumed);
  if (result != ParseResult::kFrame) return result;
  if (section.size() != kGossipFixed) return ParseResult::kError;
  out.node = get_u32(section.data());
  out.outstanding = get_u32(section.data() + 4);
  uint64_t bits = get_u64(section.data() + 8);
  std::memcpy(&out.threshold, &bits, sizeof(out.threshold));
  out.overloaded = section[16] != 0;
  return ParseResult::kFrame;
}

uint8_t peek_kind(std::string_view bytes) {
  if (bytes.size() < 3) return 0;
  return static_cast<uint8_t>(bytes[2]);
}

size_t frame_size(std::string_view bytes) {
  if (bytes.size() < kHeaderSize) return 0;
  return kHeaderSize + static_cast<size_t>(get_u32(bytes.data() + 4));
}

void encode_request(const Request& request, std::string& out) {
  encode_request_like(kKindRequest, request, out);
}

void encode_reply(uint64_t request_id, http::Fidelity fidelity, uint8_t flags,
                  std::string_view payload, std::string& out) {
  encode_reply_like(kKindReply, request_id, fidelity, flags, payload, out);
}

void encode_peer_fetch(const Request& request, std::string& out) {
  encode_request_like(kKindPeerFetch, request, out);
}

void encode_peer_reply(uint64_t request_id, http::Fidelity fidelity, uint8_t flags,
                       std::string_view payload, std::string& out) {
  encode_reply_like(kKindPeerReply, request_id, fidelity, flags, payload, out);
}

void encode_push(std::string_view key, std::string_view value, std::string& out) {
  char fixed[kHeaderSize + kPushFixed];
  store_header(fixed, kKindPeerPush, 0,
               static_cast<uint32_t>(kPushFixed + key.size() + value.size()));
  store_u32(fixed + kHeaderSize, static_cast<uint32_t>(key.size()));
  append_parts(out, {std::string_view(fixed, sizeof(fixed)), key, value});
}

void encode_gossip(const Gossip& gossip, std::string& out) {
  char frame[kHeaderSize + kGossipFixed];
  store_header(frame, kKindGossip, 0, static_cast<uint32_t>(kGossipFixed));
  char* section = frame + kHeaderSize;
  store_u32(section, gossip.node);
  store_u32(section + 4, gossip.outstanding);
  uint64_t bits = 0;
  std::memcpy(&bits, &gossip.threshold, sizeof(bits));
  store_u64(section + 8, bits);
  section[16] = gossip.overloaded ? 1 : 0;
  out.append(frame, sizeof(frame));
}

uint8_t flags_for(http::Fidelity fidelity) {
  switch (fidelity) {
    case http::Fidelity::kCached:
      return kFlagCacheServed;
    case http::Fidelity::kBusy:
      return kFlagShed;
    case http::Fidelity::kError:
      return kFlagError;
    case http::Fidelity::kDegraded:
      return kFlagDegraded;
    case http::Fidelity::kFull:
      return 0;
  }
  return 0;
}

}  // namespace sbroker::net::frame
