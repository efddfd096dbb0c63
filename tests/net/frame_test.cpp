#include "net/frame.h"

#include <gtest/gtest.h>

#include <cstring>
#include <initializer_list>
#include <string>

namespace sbroker::net::frame {
namespace {

TEST(FrameTest, RequestRoundTrip) {
  Request in;
  in.request_id = 0x1122334455667788ull;
  in.qos_level = 3;
  in.deadline_ms = 1500;
  in.query = "/object-42";
  in.txn_id = 0xFEDCBA9876543210ull;
  in.txn_step = 3;
  std::string wire;
  encode_request(in, wire);
  ASSERT_EQ(wire.size(), kHeaderSize + kRequestFixed + in.query.size());

  Request out;
  size_t consumed = 0;
  ASSERT_EQ(parse_request(wire, out, &consumed), ParseResult::kFrame);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(out.request_id, in.request_id);
  EXPECT_EQ(out.qos_level, in.qos_level);
  EXPECT_EQ(out.deadline_ms, in.deadline_ms);
  EXPECT_EQ(out.query, in.query);
  EXPECT_EQ(out.txn_id, in.txn_id);
  EXPECT_EQ(out.txn_step, in.txn_step);
}

TEST(FrameTest, UntaggedRequestDecodesWithoutTransaction) {
  Request in;
  in.request_id = 1;
  in.query = "q";
  std::string wire;
  encode_request(in, wire);
  Request out;
  out.txn_id = 99;  // must be overwritten, not left over
  out.txn_step = 9;
  ASSERT_EQ(parse_request(wire, out, nullptr), ParseResult::kFrame);
  EXPECT_EQ(out.deadline_ms, 0u);
  EXPECT_EQ(out.txn_id, 0u);
  EXPECT_EQ(out.txn_step, 0);
}

TEST(FrameTest, ReplyRoundTrip) {
  std::string wire;
  encode_reply(99, http::Fidelity::kCached, kFlagCacheServed | kFlagDegraded,
               "cached body", wire);
  Reply out;
  size_t consumed = 0;
  ASSERT_EQ(parse_reply(wire, out, &consumed), ParseResult::kFrame);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(out.request_id, 99u);
  EXPECT_EQ(out.fidelity, http::Fidelity::kCached);
  EXPECT_EQ(out.flags, kFlagCacheServed | kFlagDegraded);
  EXPECT_EQ(out.payload, "cached body");
}

TEST(FrameTest, EmptyQueryAndPayload) {
  Request rin;
  rin.request_id = 1;
  std::string wire;
  encode_request(rin, wire);
  Request rout;
  ASSERT_EQ(parse_request(wire, rout, nullptr), ParseResult::kFrame);
  EXPECT_TRUE(rout.query.empty());

  wire.clear();
  encode_reply(1, http::Fidelity::kFull, 0, "", wire);
  Reply pout;
  ASSERT_EQ(parse_reply(wire, pout, nullptr), ParseResult::kFrame);
  EXPECT_TRUE(pout.payload.empty());
}

TEST(FrameTest, TruncatedFramesNeedMore) {
  Request in;
  in.request_id = 7;
  in.query = "/object-1";
  std::string wire;
  encode_request(in, wire);
  Request out;
  size_t consumed = 123;
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_EQ(parse_request(std::string_view(wire).substr(0, cut), out, &consumed),
              ParseResult::kNeedMore)
        << "at prefix length " << cut;
  }
  EXPECT_EQ(parse_request(wire, out, &consumed), ParseResult::kFrame);
}

TEST(FrameTest, GarbageMagicIsError) {
  std::string wire = "GET / HTTP/1.1\r\n\r\n";
  Request out;
  EXPECT_EQ(parse_request(wire, out, nullptr), ParseResult::kError);
}

TEST(FrameTest, WrongVersionIsError) {
  Request in;
  in.request_id = 1;
  std::string wire;
  encode_request(in, wire);
  wire[1] = 1;  // a v1 sender, whose request section has no transaction tag
  Request out;
  EXPECT_EQ(parse_request(wire, out, nullptr), ParseResult::kError);
}

TEST(FrameTest, WrongKindIsError) {
  std::string wire;
  encode_reply(1, http::Fidelity::kFull, 0, "x", wire);
  Request out;
  EXPECT_EQ(parse_request(wire, out, nullptr), ParseResult::kError);
}

TEST(FrameTest, OversizedLengthIsErrorNotNeedMore) {
  std::string wire;
  wire.push_back(static_cast<char>(kMagic));
  wire.push_back(static_cast<char>(kVersion));
  wire.push_back(static_cast<char>(kKindRequest));
  wire.push_back(1);
  uint32_t huge = kMaxSectionLength + 1;
  for (int i = 0; i < 4; ++i) wire.push_back(static_cast<char>((huge >> (8 * i)) & 0xff));
  Request out;
  EXPECT_EQ(parse_request(wire, out, nullptr), ParseResult::kError);
}

TEST(FrameTest, SectionShorterThanFixedPartIsError) {
  std::string wire;
  wire.push_back(static_cast<char>(kMagic));
  wire.push_back(static_cast<char>(kVersion));
  wire.push_back(static_cast<char>(kKindRequest));
  wire.push_back(1);
  uint32_t len = 4;  // request fixed part needs 21
  for (int i = 0; i < 4; ++i) wire.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
  wire.append(4, '\0');
  Request out;
  EXPECT_EQ(parse_request(wire, out, nullptr), ParseResult::kError);
}

TEST(FrameTest, BadReplyStatusIsError) {
  std::string wire;
  encode_reply(1, http::Fidelity::kFull, 0, "", wire);
  wire[3] = 42;  // no such fidelity
  Reply out;
  EXPECT_EQ(parse_reply(wire, out, nullptr), ParseResult::kError);
}

TEST(FrameTest, FrameSizeFromHeader) {
  Request in;
  in.request_id = 5;
  in.query = "/object-123";
  std::string wire;
  encode_request(in, wire);
  EXPECT_EQ(frame_size(wire), wire.size());
  EXPECT_EQ(frame_size(std::string_view(wire).substr(0, kHeaderSize - 1)), 0u);
}

TEST(FrameTest, BackToBackFramesParseSequentially) {
  std::string wire;
  Request a;
  a.request_id = 1;
  a.query = "/object-1";
  Request b;
  b.request_id = 2;
  b.query = "/object-2";
  encode_request(a, wire);
  encode_request(b, wire);

  std::string_view rest = wire;
  Request out;
  size_t consumed = 0;
  ASSERT_EQ(parse_request(rest, out, &consumed), ParseResult::kFrame);
  EXPECT_EQ(out.request_id, 1u);
  rest.remove_prefix(consumed);
  ASSERT_EQ(parse_request(rest, out, &consumed), ParseResult::kFrame);
  EXPECT_EQ(out.request_id, 2u);
  rest.remove_prefix(consumed);
  EXPECT_TRUE(rest.empty());
}

TEST(FrameTest, MagicDistinctFromOtherProtocols) {
  // A stray HTTP client on the frame port fails on its first byte because
  // the frame magic never starts an HTTP method.
  EXPECT_FALSE(kMagic >= 'A' && kMagic <= 'Z');
  EXPECT_FALSE(kMagic >= 'a' && kMagic <= 'z');
}

TEST(FrameTest, FidelityNames) {
  EXPECT_STREQ(http::fidelity_name(http::Fidelity::kFull), "full");
  EXPECT_STREQ(http::fidelity_name(http::Fidelity::kCached), "cached");
  EXPECT_STREQ(http::fidelity_name(http::Fidelity::kBusy), "busy");
  EXPECT_STREQ(http::fidelity_name(http::Fidelity::kError), "error");
  EXPECT_STREQ(http::fidelity_name(http::Fidelity::kDegraded), "degraded");
}

TEST(FrameTest, FlagsForFidelity) {
  EXPECT_EQ(flags_for(http::Fidelity::kFull), 0);
  EXPECT_EQ(flags_for(http::Fidelity::kCached), kFlagCacheServed);
  EXPECT_EQ(flags_for(http::Fidelity::kBusy), kFlagShed);
  EXPECT_EQ(flags_for(http::Fidelity::kError), kFlagError);
  EXPECT_EQ(flags_for(http::Fidelity::kDegraded), kFlagDegraded);
}

TEST(PeerFrameTest, PeerFetchRoundTrip) {
  Request in;
  in.request_id = 0xABCDEF0123456789ull;
  in.qos_level = 2;
  in.deadline_ms = 750;  // the forwarder's *remaining* budget
  in.query = "/forwarded-key";
  in.txn_id = 4242;  // the client's transaction tag travels to the owner
  in.txn_step = 2;
  std::string wire;
  encode_peer_fetch(in, wire);
  EXPECT_EQ(static_cast<uint8_t>(wire[2]), kKindPeerFetch);

  Request out;
  size_t consumed = 0;
  ASSERT_EQ(parse_peer_fetch(wire, out, &consumed), ParseResult::kFrame);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(out.request_id, in.request_id);
  EXPECT_EQ(out.qos_level, in.qos_level);
  EXPECT_EQ(out.deadline_ms, in.deadline_ms);
  EXPECT_EQ(out.query, in.query);
  EXPECT_EQ(out.txn_id, in.txn_id);
  EXPECT_EQ(out.txn_step, in.txn_step);
  // The kinds are disjoint: a peer fetch is not a client request.
  EXPECT_EQ(parse_request(wire, out, &consumed), ParseResult::kError);
}

TEST(PeerFrameTest, PeerReplyRoundTrip) {
  std::string wire;
  encode_peer_reply(42, http::Fidelity::kCached, kFlagCacheServed,
                    "owner cache body", wire);
  Reply out;
  size_t consumed = 0;
  ASSERT_EQ(parse_peer_reply(wire, out, &consumed), ParseResult::kFrame);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(out.request_id, 42u);
  EXPECT_EQ(out.fidelity, http::Fidelity::kCached);
  EXPECT_EQ(out.flags, kFlagCacheServed);
  EXPECT_EQ(out.payload, "owner cache body");
  EXPECT_EQ(parse_reply(wire, out, &consumed), ParseResult::kError);
}

TEST(PeerFrameTest, PushRoundTrip) {
  std::string wire;
  encode_push("/hot-key", "hot value bytes", wire);
  Push out;
  size_t consumed = 0;
  ASSERT_EQ(parse_push(wire, out, &consumed), ParseResult::kFrame);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(out.key, "/hot-key");
  EXPECT_EQ(out.value, "hot value bytes");
}

TEST(PeerFrameTest, PushWithEmptyValue) {
  std::string wire;
  encode_push("/k", "", wire);
  Push out;
  ASSERT_EQ(parse_push(wire, out, nullptr), ParseResult::kFrame);
  EXPECT_EQ(out.key, "/k");
  EXPECT_TRUE(out.value.empty());
}

TEST(PeerFrameTest, PushKeyLengthBeyondSectionIsError) {
  std::string wire;
  encode_push("/abcdef", "v", wire);
  // Corrupt the key length (first section field) to exceed the section.
  uint32_t huge = 1000;
  std::memcpy(wire.data() + kHeaderSize, &huge, sizeof(huge));
  Push out;
  EXPECT_EQ(parse_push(wire, out, nullptr), ParseResult::kError);
}

TEST(PeerFrameTest, GossipRoundTrip) {
  Gossip in;
  in.node = 2;
  in.outstanding = 137;
  in.threshold = 48.625;  // exact in IEEE-754: byte-identical round trip
  in.overloaded = true;
  std::string wire;
  encode_gossip(in, wire);
  ASSERT_EQ(wire.size(), kHeaderSize + kGossipFixed);

  Gossip out;
  size_t consumed = 0;
  ASSERT_EQ(parse_gossip(wire, out, &consumed), ParseResult::kFrame);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(out.node, 2u);
  EXPECT_EQ(out.outstanding, 137u);
  EXPECT_DOUBLE_EQ(out.threshold, 48.625);
  EXPECT_TRUE(out.overloaded);
}

TEST(PeerFrameTest, GossipWrongSectionSizeIsError) {
  Gossip in;
  std::string wire;
  encode_gossip(in, wire);
  // Announce one byte short in the header length and truncate to match.
  uint32_t short_len = kGossipFixed - 1;
  std::memcpy(wire.data() + 4, &short_len, sizeof(short_len));
  wire.resize(kHeaderSize + short_len);
  Gossip out;
  EXPECT_EQ(parse_gossip(wire, out, nullptr), ParseResult::kError);
}

TEST(PeerFrameTest, PeekKindDispatches) {
  EXPECT_EQ(peek_kind(""), 0);
  EXPECT_EQ(peek_kind(std::string_view("\xb7\x01", 2)), 0);  // header pending
  std::string wire;
  encode_push("/k", "v", wire);
  EXPECT_EQ(peek_kind(wire), kKindPeerPush);
  wire.clear();
  Gossip g;
  encode_gossip(g, wire);
  EXPECT_EQ(peek_kind(wire), kKindGossip);
  wire.clear();
  Request r;
  encode_request(r, wire);
  EXPECT_EQ(peek_kind(wire), kKindRequest);
  wire.clear();
  encode_peer_fetch(r, wire);
  EXPECT_EQ(peek_kind(wire), kKindPeerFetch);
}

TEST(PeerFrameTest, TruncatedPeerFramesNeedMore) {
  std::string wire;
  encode_push("/key", "value", wire);
  for (size_t len = 0; len < wire.size(); ++len) {
    Push out;
    EXPECT_EQ(parse_push(std::string_view(wire).substr(0, len), out, nullptr),
              ParseResult::kNeedMore)
        << len;
  }
  wire.clear();
  Gossip g;
  encode_gossip(g, wire);
  for (size_t len = 0; len < wire.size(); ++len) {
    Gossip out;
    EXPECT_EQ(parse_gossip(std::string_view(wire).substr(0, len), out, nullptr),
              ParseResult::kNeedMore)
        << len;
  }
}

// ---------------------------------------------------------------------------
// Golden bytes: the encoders' exact output, pinned byte for byte from the
// wire layout in frame.h. Each encoder appends, so every case also runs onto
// a non-empty buffer whose prefix must survive untouched, and then parses
// back through the matching parse_*.

std::string bytes(std::initializer_list<unsigned char> b) {
  return std::string(b.begin(), b.end());
}

/// Encodes onto an empty buffer and onto one holding `prefix`; both must
/// equal the golden frame (after the prefix). Returns the frame alone.
template <typename Encode>
std::string encode_both_ways(Encode encode, const std::string& golden) {
  std::string fresh;
  encode(fresh);
  EXPECT_EQ(fresh, golden);
  const std::string prefix = "earlier-frame-bytes";
  std::string appended = prefix;
  encode(appended);
  EXPECT_EQ(appended.substr(0, prefix.size()), prefix);
  EXPECT_EQ(appended.substr(prefix.size()), golden);
  return fresh;
}

TEST(FrameGoldenTest, RequestBytes) {
  Request in;
  in.request_id = 0x1122334455667788ull;
  in.qos_level = 3;
  in.deadline_ms = 1500;
  in.query = "/q-7";
  in.txn_id = 0x0A0B0C0D0E0F1011ull;
  in.txn_step = 3;
  std::string golden = bytes({0xB7, 0x02, 0x01, 0x03, 0x19, 0x00, 0x00, 0x00,
                              0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,
                              0xDC, 0x05, 0x00, 0x00,
                              0x11, 0x10, 0x0F, 0x0E, 0x0D, 0x0C, 0x0B, 0x0A,
                              0x03}) +
                       "/q-7";
  std::string wire =
      encode_both_ways([&](std::string& out) { encode_request(in, out); }, golden);
  Request out;
  size_t consumed = 0;
  ASSERT_EQ(parse_request(wire, out, &consumed), ParseResult::kFrame);
  EXPECT_EQ(consumed, golden.size());
  EXPECT_EQ(out.request_id, in.request_id);
  EXPECT_EQ(out.qos_level, 3);
  EXPECT_EQ(out.deadline_ms, 1500u);
  EXPECT_EQ(out.query, "/q-7");
  EXPECT_EQ(out.txn_id, in.txn_id);
  EXPECT_EQ(out.txn_step, 3);
}

TEST(FrameGoldenTest, PeerFetchBytes) {
  Request in;
  in.request_id = 0x1122334455667788ull;
  in.qos_level = 2;
  in.deadline_ms = 0xA0B0C0D0u;
  in.query = "";
  in.txn_id = 0x77;
  in.txn_step = 2;
  std::string golden = bytes({0xB7, 0x02, 0x03, 0x02, 0x15, 0x00, 0x00, 0x00,
                              0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,
                              0xD0, 0xC0, 0xB0, 0xA0,
                              0x77, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                              0x02});
  std::string wire =
      encode_both_ways([&](std::string& out) { encode_peer_fetch(in, out); }, golden);
  Request out;
  ASSERT_EQ(parse_peer_fetch(wire, out, nullptr), ParseResult::kFrame);
  EXPECT_EQ(out.request_id, in.request_id);
  EXPECT_EQ(out.qos_level, 2);
  EXPECT_EQ(out.deadline_ms, 0xA0B0C0D0u);
  EXPECT_TRUE(out.query.empty());
  EXPECT_EQ(out.txn_id, 0x77u);
  EXPECT_EQ(out.txn_step, 2);
}

TEST(FrameGoldenTest, ReplyBytes) {
  std::string golden = bytes({0xB7, 0x02, 0x02, 0x01, 0x0D, 0x00, 0x00, 0x00,
                              0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
                              0x03}) +
                       "body";
  std::string wire = encode_both_ways(
      [](std::string& out) {
        encode_reply(0x0102030405060708ull, http::Fidelity::kCached,
                     kFlagCacheServed | kFlagDegraded, "body", out);
      },
      golden);
  Reply out;
  size_t consumed = 0;
  ASSERT_EQ(parse_reply(wire, out, &consumed), ParseResult::kFrame);
  EXPECT_EQ(consumed, golden.size());
  EXPECT_EQ(out.request_id, 0x0102030405060708ull);
  EXPECT_EQ(out.fidelity, http::Fidelity::kCached);
  EXPECT_EQ(out.flags, kFlagCacheServed | kFlagDegraded);
  EXPECT_EQ(out.payload, "body");
}

TEST(FrameGoldenTest, PeerReplyBytes) {
  // A payload past 255 bytes exercises the second length byte.
  std::string payload(300, 'p');
  std::string golden = bytes({0xB7, 0x02, 0x04, 0x04, 0x35, 0x01, 0x00, 0x00,
                              0xFF, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                              0x02}) +
                       payload;
  std::string wire = encode_both_ways(
      [&](std::string& out) {
        encode_peer_reply(0xFF, http::Fidelity::kDegraded, kFlagDegraded, payload,
                          out);
      },
      golden);
  Reply out;
  ASSERT_EQ(parse_peer_reply(wire, out, nullptr), ParseResult::kFrame);
  EXPECT_EQ(out.request_id, 0xFFu);
  EXPECT_EQ(out.fidelity, http::Fidelity::kDegraded);
  EXPECT_EQ(out.flags, kFlagDegraded);
  EXPECT_EQ(out.payload, payload);
}

TEST(FrameGoldenTest, PushAndGossipBytes) {
  std::string push_golden = bytes({0xB7, 0x02, 0x05, 0x00, 0x09, 0x00, 0x00, 0x00,
                                   0x03, 0x00, 0x00, 0x00}) +
                            "/k1" + "vv";
  std::string push = encode_both_ways(
      [](std::string& out) { encode_push("/k1", "vv", out); }, push_golden);
  Push p;
  ASSERT_EQ(parse_push(push, p, nullptr), ParseResult::kFrame);
  EXPECT_EQ(p.key, "/k1");
  EXPECT_EQ(p.value, "vv");

  Gossip in;
  in.node = 2;
  in.outstanding = 137;
  in.threshold = 48.625;  // IEEE-754 bits 0x4048500000000000
  in.overloaded = true;
  std::string gossip_golden = bytes({0xB7, 0x02, 0x06, 0x00, 0x11, 0x00, 0x00, 0x00,
                                     0x02, 0x00, 0x00, 0x00, 0x89, 0x00, 0x00, 0x00,
                                     0x00, 0x00, 0x00, 0x00, 0x00, 0x50, 0x48, 0x40,
                                     0x01});
  std::string gossip = encode_both_ways(
      [&](std::string& out) { encode_gossip(in, out); }, gossip_golden);
  Gossip g;
  ASSERT_EQ(parse_gossip(gossip, g, nullptr), ParseResult::kFrame);
  EXPECT_EQ(g.node, 2u);
  EXPECT_EQ(g.outstanding, 137u);
  EXPECT_EQ(g.threshold, 48.625);
  EXPECT_TRUE(g.overloaded);
}

}  // namespace
}  // namespace sbroker::net::frame
