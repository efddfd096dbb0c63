// Deterministic mutation loop over the HTTP parsers.
//
// Golden requests and responses are mutated (bit flips, truncation, CRLF
// deletion, Content-Length rewrites up to and past kMaxBodyBytes, and now
// and then a run of padding long enough to cross kMaxHeadBytes) and fed to
// both RequestParser and ResponseParser, once whole and once in random
// chunk sizes. Every next() must answer kNeedMore, kMessage or kError, and a
// parser that is still waiting must never hold an unfinished head longer
// than kMaxHeadBytes: the bytes it holds are the tail of what was fed, so
// the test can see whether that tail contains the end of a head.
//
// The seed is fixed, so a failure replays exactly; the failure message
// names the seed and the iteration.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "http/parser.h"
#include "util/rng.h"

namespace sbroker::http {
namespace {

constexpr uint64_t kSeed = 0x5eed'4777'0000'0001ull;
constexpr int kIterations = 3000;

const std::vector<std::string>& golden_messages() {
  static const std::vector<std::string> messages = {
      "GET /object-42 HTTP/1.1\r\nHost: broker\r\nX-QoS-Level: 3\r\n\r\n",
      "POST /query HTTP/1.1\r\nContent-Length: 11\r\n\r\nSELECT * 42",
      "GET /1 HTTP/1.1\r\n\r\nGET /2 HTTP/1.1\r\nX-Deadline-Ms: 50\r\n\r\n",
      "HTTP/1.1 200 OK\r\nContent-Length: 11\r\nX-Fidelity: cached\r\n\r\ncached body",
      "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n",
      "HTTP/1.1 204 No Content\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi",
  };
  return messages;
}

size_t pick(util::Rng& rng, size_t size) {
  return static_cast<size_t>(rng.uniform_int(0, static_cast<int64_t>(size) - 1));
}

/// Applies one to three random mutations to `bytes`.
void mutate(util::Rng& rng, std::string& bytes) {
  int rounds = static_cast<int>(rng.uniform_int(1, 3));
  for (int r = 0; r < rounds; ++r) {
    switch (rng.uniform_int(0, 4)) {
      case 0:  // bit flip
        if (!bytes.empty()) {
          size_t at = pick(rng, bytes.size());
          bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.uniform_int(0, 7)));
        }
        break;
      case 1:  // truncation
        bytes.resize(static_cast<size_t>(
            rng.uniform_int(0, static_cast<int64_t>(bytes.size()))));
        break;
      case 2: {  // CRLF deletion: the whole pair, or just one of its bytes
        std::vector<size_t> crlfs;
        for (size_t at = bytes.find("\r\n"); at != std::string::npos;
             at = bytes.find("\r\n", at + 1)) {
          crlfs.push_back(at);
        }
        if (crlfs.empty()) break;
        size_t at = crlfs[pick(rng, crlfs.size())];
        int64_t how = rng.uniform_int(0, 2);
        if (how == 0) {
          bytes.erase(at, 2);
        } else {
          bytes.erase(at + static_cast<size_t>(how - 1), 1);
        }
        break;
      }
      case 3: {  // Content-Length rewrite (or insertion after the start line)
        const std::string choices[] = {
            "0", "1", "11", "12", std::to_string(rng.uniform_int(0, 64)),
            std::to_string(kMaxBodyBytes), std::to_string(kMaxBodyBytes + 1),
            "1000000000000", "-1", "banana", "99999999999999999999999",
        };
        std::string value = choices[pick(rng, std::size(choices))];
        size_t header = bytes.find("Content-Length: ");
        if (header != std::string::npos) {
          size_t start = header + 16;
          size_t end = bytes.find("\r\n", start);
          bytes.replace(start, end == std::string::npos ? bytes.size() - start
                                                        : end - start,
                        value);
        } else if (size_t eol = bytes.find("\r\n"); eol != std::string::npos) {
          bytes.insert(eol + 2, "Content-Length: " + value + "\r\n");
        }
        break;
      }
      case 4:  // rare: padding without a line end that crosses the head cap
        if (rng.uniform_int(0, 15) == 0) {
          bytes.insert(bytes.empty() ? 0 : pick(rng, bytes.size()),
                       std::string(kMaxHeadBytes + 64, 'x'));
        }
        break;
    }
  }
}

struct Tally {
  int messages = 0;
  int errors = 0;
};

/// Feeds `input` to a fresh parser in chunks of `min_chunk..max_chunk`
/// bytes, draining next() after every feed, and checks the invariants.
template <typename Parser, typename Message>
void run(util::Rng& rng, const std::string& input, size_t min_chunk,
         size_t max_chunk, Tally& tally) {
  Parser parser;
  size_t fed = 0;
  while (fed < input.size()) {
    size_t chunk = static_cast<size_t>(rng.uniform_int(
        static_cast<int64_t>(min_chunk), static_cast<int64_t>(max_chunk)));
    chunk = std::min(chunk, input.size() - fed);
    parser.feed(std::string_view(input).substr(fed, chunk));
    fed += chunk;
    ParseResult result = ParseResult::kNeedMore;
    Message msg;
    while ((result = parser.next(msg)) == ParseResult::kMessage) ++tally.messages;
    ASSERT_TRUE(result == ParseResult::kNeedMore || result == ParseResult::kError);
    if (result == ParseResult::kError) {
      ++tally.errors;
      EXPECT_TRUE(parser.in_error());
      EXPECT_EQ(parser.next(msg), ParseResult::kError);  // sticky
      return;
    }
    // Waiting: the parser holds the last buffered() bytes fed. A head that
    // has not ended yet, or one that has, must fit the cap.
    ASSERT_LE(parser.buffered(), fed);
    std::string_view held =
        std::string_view(input).substr(fed - parser.buffered(), parser.buffered());
    size_t head_end = held.find("\r\n\r\n");
    size_t head = head_end == std::string_view::npos ? held.size() : head_end + 4;
    ASSERT_LE(head, kMaxHeadBytes) << "buffered=" << parser.buffered();
  }
}

TEST(HttpParserFuzzTest, MutatedMessagesStayClassifiedAndCapped) {
  const std::vector<std::string>& golden = golden_messages();
  util::Rng rng(kSeed);
  Tally tally;
  for (int iter = 0; iter < kIterations; ++iter) {
    std::string input = golden[static_cast<size_t>(iter) % golden.size()];
    mutate(rng, input);
    SCOPED_TRACE(testing::Message() << "seed=" << kSeed << " iteration=" << iter
                                    << " size=" << input.size());
    // Long inputs get coarse chunks. The head parse is linear (each call
    // resumes where the last one stopped), but 1..24-byte chunks over the
    // 64 KiB padding make ~5,000 feeds per run and more than double this
    // test's runtime (12 ms -> 27 ms); the *DribbleIsLinear tests in
    // parser_test.cpp already feed 64 KiB heads a byte at a time.
    size_t min_chunk = input.size() > 4096 ? 512 : 1;
    size_t max_chunk = input.size() > 4096 ? 8192 : 24;
    size_t whole = input.size() == 0 ? 1 : input.size();
    run<RequestParser, Request>(rng, input, whole, whole, tally);
    run<RequestParser, Request>(rng, input, min_chunk, max_chunk, tally);
    run<ResponseParser, Response>(rng, input, whole, whole, tally);
    run<ResponseParser, Response>(rng, input, min_chunk, max_chunk, tally);
    if (HasFatalFailure()) return;
  }
  // The mutations must leave plenty of messages parseable and plenty
  // rejected, or the loop only exercised one side of the parsers.
  EXPECT_GT(tally.messages, kIterations / 4);
  EXPECT_GT(tally.errors, kIterations / 4);
}

}  // namespace
}  // namespace sbroker::http
