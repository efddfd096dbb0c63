// Deterministic mutation loop over the frame decoders.
//
// Golden frames of every kind are mutated (bit flips, byte overwrites,
// truncation, section-length rewrites up to and past kMaxSectionLength) and
// fed to every parse_*. Each decoder must classify the bytes as kNeedMore,
// kError or kFrame, never consume past the input, and only hand out views
// that lie inside it. Every mutated input sits in its own exactly-sized heap
// block, so under ASan a single byte of over-read fails the run.
//
// The seed is fixed, so a failure replays exactly; the failure message
// names the seed and the iteration.
#include <gtest/gtest.h>

#include <cstring>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/frame.h"
#include "util/rng.h"

namespace sbroker::net::frame {
namespace {

constexpr uint64_t kSeed = 0x5eed'f4a3'e000'0001ull;
constexpr int kIterations = 4000;

std::vector<std::string> golden_frames() {
  std::vector<std::string> frames(6);
  Request request{0x1122334455667788ull, 3, 1500, "/object-42", 0x0A0B0C0Dull, 2};
  encode_request(request, frames[0]);
  encode_reply(99, http::Fidelity::kCached, kFlagCacheServed, "cached body",
               frames[1]);
  encode_peer_fetch(request, frames[2]);
  encode_peer_reply(7, http::Fidelity::kDegraded, kFlagDegraded, "owner body",
                    frames[3]);
  encode_push("/hot-key", "hot value", frames[4]);
  encode_gossip(Gossip{2, 137, 48.625, true}, frames[5]);
  return frames;
}

void store_u32(std::string& bytes, size_t at, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes[at + static_cast<size_t>(i)] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

/// Applies one to three random mutations to `bytes`.
void mutate(util::Rng& rng, std::string& bytes) {
  int rounds = static_cast<int>(rng.uniform_int(1, 3));
  for (int r = 0; r < rounds; ++r) {
    switch (rng.uniform_int(0, 3)) {
      case 0:  // bit flip
        if (!bytes.empty()) {
          size_t at = static_cast<size_t>(
              rng.uniform_int(0, static_cast<int64_t>(bytes.size()) - 1));
          bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.uniform_int(0, 7)));
        }
        break;
      case 1:  // byte overwrite
        if (!bytes.empty()) {
          size_t at = static_cast<size_t>(
              rng.uniform_int(0, static_cast<int64_t>(bytes.size()) - 1));
          bytes[at] = static_cast<char>(rng.uniform_int(0, 255));
        }
        break;
      case 2:  // truncation
        bytes.resize(static_cast<size_t>(
            rng.uniform_int(0, static_cast<int64_t>(bytes.size()))));
        break;
      case 3: {  // section-length rewrite
        if (bytes.size() < kHeaderSize) break;
        uint32_t actual = static_cast<uint32_t>(bytes.size() - kHeaderSize);
        uint32_t choices[] = {
            0,
            actual > 0 ? actual - 1 : 0,
            actual + 1,
            static_cast<uint32_t>(rng.uniform_int(0, 64)),
            kMaxSectionLength,
            kMaxSectionLength + 1,
            0xFFFFFFFFu,
        };
        store_u32(bytes, 4, choices[rng.uniform_int(0, 6)]);
        break;
      }
    }
  }
}

/// Where a decoded view points; empty views are always fine.
bool inside(std::string_view view, const char* begin, size_t size) {
  if (view.empty()) return true;
  return view.data() >= begin && view.data() + view.size() <= begin + size;
}

TEST(FrameFuzzTest, MutatedFramesNeverOverreadOrOverconsume) {
  const std::vector<std::string> golden = golden_frames();
  util::Rng rng(kSeed);
  int frames_seen = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    std::string mutated = golden[static_cast<size_t>(iter) % golden.size()];
    mutate(rng, mutated);
    // Exactly-sized block: no std::string slack for an over-read to hide in.
    size_t n = mutated.size();
    std::unique_ptr<char[]> block(new char[n == 0 ? 1 : n]);
    if (n > 0) std::memcpy(block.get(), mutated.data(), n);
    std::string_view input(block.get(), n);
    const char* base = block.get();
    SCOPED_TRACE(testing::Message() << "seed=" << kSeed << " iteration=" << iter
                                    << " size=" << n);

    auto check = [&](const char* parser, ParseResult result, size_t consumed,
                     std::initializer_list<std::string_view> views) {
      SCOPED_TRACE(parser);
      ASSERT_TRUE(result == ParseResult::kNeedMore || result == ParseResult::kError ||
                  result == ParseResult::kFrame);
      if (result != ParseResult::kFrame) return;
      ++frames_seen;
      EXPECT_GE(consumed, kHeaderSize);
      EXPECT_LE(consumed, n);
      for (std::string_view view : views) {
        EXPECT_TRUE(inside(view, base, consumed));
      }
    };

    try {
      size_t consumed = 0;
      Request request;
      ParseResult r = parse_request(input, request, &consumed);
      check("request", r, consumed, {request.query});
      Request fetch;
      r = parse_peer_fetch(input, fetch, &consumed);
      check("peer_fetch", r, consumed, {fetch.query});
      Reply reply;
      r = parse_reply(input, reply, &consumed);
      check("reply", r, consumed, {reply.payload});
      Reply peer_reply;
      r = parse_peer_reply(input, peer_reply, &consumed);
      check("peer_reply", r, consumed, {peer_reply.payload});
      Push push;
      r = parse_push(input, push, &consumed);
      check("push", r, consumed, {push.key, push.value});
      Gossip gossip;
      r = parse_gossip(input, gossip, &consumed);
      check("gossip", r, consumed, {});
      // The header helpers the ingress loop dispatches on must be total too.
      (void)peek_kind(input);
      (void)frame_size(input);
    } catch (const std::exception& e) {
      FAIL() << "decoder threw: " << e.what();
    }
    if (HasFatalFailure()) return;
  }
  // The mutations must leave some frames decodable, or the loop only ever
  // exercised the early rejections.
  EXPECT_GT(frames_seen, kIterations / 20);
}

}  // namespace
}  // namespace sbroker::net::frame
