#include "http/parser.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <string_view>

namespace sbroker::http {
namespace {

TEST(RequestParser, ParsesCompleteRequest) {
  auto req = parse_request("GET /x HTTP/1.1\r\nHost: a\r\n\r\n");
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->method, "GET");
  EXPECT_EQ(req->target, "/x");
  EXPECT_EQ(req->version, "HTTP/1.1");
  EXPECT_EQ(req->headers.get("host"), "a");
  EXPECT_TRUE(req->body.empty());
}

TEST(RequestParser, ParsesBodyWithContentLength) {
  auto req = parse_request("POST /q HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd");
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->body, "abcd");
}

TEST(RequestParser, IncrementalFeeding) {
  RequestParser parser;
  Request req;
  std::string wire = "GET /p HTTP/1.1\r\nContent-Length: 3\r\n\r\nxyz";
  for (char c : wire.substr(0, wire.size() - 1)) {
    parser.feed(std::string_view(&c, 1));
    EXPECT_EQ(parser.next(req), ParseResult::kNeedMore);
  }
  parser.feed(wire.substr(wire.size() - 1));
  EXPECT_EQ(parser.next(req), ParseResult::kMessage);
  EXPECT_EQ(req.body, "xyz");
}

TEST(RequestParser, PipelinedRequests) {
  RequestParser parser;
  parser.feed("GET /1 HTTP/1.1\r\n\r\nGET /2 HTTP/1.1\r\n\r\n");
  Request req;
  ASSERT_EQ(parser.next(req), ParseResult::kMessage);
  EXPECT_EQ(req.target, "/1");
  ASSERT_EQ(parser.next(req), ParseResult::kMessage);
  EXPECT_EQ(req.target, "/2");
  EXPECT_EQ(parser.next(req), ParseResult::kNeedMore);
}

TEST(RequestParser, MalformedRequestLineIsStickyError) {
  RequestParser parser;
  parser.feed("NOT A VALID LINE EXTRA WORDS\r\n\r\n");
  Request req;
  EXPECT_EQ(parser.next(req), ParseResult::kError);
  EXPECT_TRUE(parser.in_error());
  parser.feed("GET / HTTP/1.1\r\n\r\n");
  EXPECT_EQ(parser.next(req), ParseResult::kError);  // sticky
}

TEST(RequestParser, BadContentLength) {
  RequestParser parser;
  parser.feed("GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n");
  Request req;
  EXPECT_EQ(parser.next(req), ParseResult::kError);
}

TEST(RequestParser, HeaderWithoutColonIsError) {
  RequestParser parser;
  parser.feed("GET / HTTP/1.1\r\nbadheader\r\n\r\n");
  Request req;
  EXPECT_EQ(parser.next(req), ParseResult::kError);
}

TEST(ResponseParser, ParsesResponse) {
  auto resp = parse_response("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->reason, "OK");
  EXPECT_EQ(resp->body, "hi");
}

TEST(ResponseParser, ReasonWithSpaces) {
  auto resp = parse_response("HTTP/1.1 503 Service Unavailable\r\n\r\n");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->reason, "Service Unavailable");
}

TEST(ResponseParser, BadStatusCode) {
  ResponseParser parser;
  parser.feed("HTTP/1.1 9999 Weird\r\n\r\n");
  Response resp;
  EXPECT_EQ(parser.next(resp), ParseResult::kError);
}

TEST(ResponseParser, RoundTripSerializeParse) {
  Response original = make_response(206, "partial body");
  original.headers.set("X-Fidelity", "cached");
  auto parsed = parse_response(original.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, 206);
  EXPECT_EQ(parsed->body, "partial body");
  EXPECT_EQ(parsed->headers.get("x-fidelity"), "cached");
}

// Bounded buffering: a head that never ends, or a body announced past the
// cap, is refused as soon as it shows rather than buffered without limit.

std::string header_block_past_cap() {
  std::string block;
  const std::string line = "X-Pad: " + std::string(100, 'p') + "\r\n";
  while (block.size() <= kMaxHeadBytes) block += line;
  return block;  // never ends in the blank line
}

template <typename Parser, typename Message>
void expect_head_without_line_end_capped(std::string_view start) {
  Parser parser;
  Message msg;
  parser.feed(start);
  parser.feed(std::string(kMaxHeadBytes - start.size(), 'a'));
  EXPECT_EQ(parser.next(msg), ParseResult::kNeedMore);  // exactly at the cap
  parser.feed(std::string(128 * 1024, 'a'));
  EXPECT_EQ(parser.next(msg), ParseResult::kError);
  EXPECT_TRUE(parser.in_error());
}

template <typename Parser, typename Message>
void expect_header_block_capped(std::string_view start_line) {
  Parser parser;
  Message msg;
  parser.feed(start_line);
  parser.feed("X-Pad: short\r\n");
  EXPECT_EQ(parser.next(msg), ParseResult::kNeedMore);
  parser.feed(header_block_past_cap());
  EXPECT_EQ(parser.next(msg), ParseResult::kError);
}

template <typename Parser, typename Message>
void expect_body_length_capped(std::string_view start_line) {
  Parser at_cap;
  Message msg;
  at_cap.feed(std::string(start_line) +
              "Content-Length: " + std::to_string(kMaxBodyBytes) + "\r\n\r\n");
  EXPECT_EQ(at_cap.next(msg), ParseResult::kNeedMore);  // waits for the body
  Parser huge;
  huge.feed(std::string(start_line) + "Content-Length: 1000000000000\r\n\r\n");
  EXPECT_EQ(huge.next(msg), ParseResult::kError);  // at once, before any body
  Parser past_cap;
  past_cap.feed(std::string(start_line) + "Content-Length: " +
                std::to_string(kMaxBodyBytes + 1) + "\r\n\r\n");
  EXPECT_EQ(past_cap.next(msg), ParseResult::kError);
}

TEST(RequestParser, HeadWithoutLineEndPastCapIsError) {
  expect_head_without_line_end_capped<RequestParser, Request>("GET /");
}

TEST(RequestParser, HeaderBlockWithoutBlankLinePastCapIsError) {
  expect_header_block_capped<RequestParser, Request>("GET / HTTP/1.1\r\n");
}

TEST(RequestParser, ContentLengthPastCapIsErrorAtOnce) {
  expect_body_length_capped<RequestParser, Request>("POST / HTTP/1.1\r\n");
}

TEST(ResponseParser, HeadWithoutLineEndPastCapIsError) {
  expect_head_without_line_end_capped<ResponseParser, Response>("HTTP/1.1 200 ");
}

TEST(ResponseParser, HeaderBlockWithoutBlankLinePastCapIsError) {
  expect_header_block_capped<ResponseParser, Response>("HTTP/1.1 200 OK\r\n");
}

TEST(ResponseParser, ContentLengthPastCapIsErrorAtOnce) {
  expect_body_length_capped<ResponseParser, Response>("HTTP/1.1 200 OK\r\n");
}

// Work stays linear in the bytes fed when a peer dribbles an unfinished head
// one byte per read: the end-of-head search resumes where it stopped and the
// header lines are parsed once.

template <typename Parser, typename Message>
double seconds_to_dribble(std::string_view wire, ParseResult last) {
  Parser parser;
  Message msg;
  auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < wire.size(); ++i) {
    parser.feed(wire.substr(i, 1));
    ParseResult got = parser.next(msg);
    if (i + 1 < wire.size()) {
      EXPECT_EQ(got, ParseResult::kNeedMore) << "byte " << i;
    } else {
      EXPECT_EQ(got, last);
    }
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

TEST(RequestParser, CarriageReturnDribbleIsLinear) {
  std::string wire(kMaxHeadBytes, '\r');
  EXPECT_LT((seconds_to_dribble<RequestParser, Request>(wire, ParseResult::kNeedMore)),
            1.0);
}

TEST(ResponseParser, CarriageReturnDribbleIsLinear) {
  std::string wire(kMaxHeadBytes, '\r');
  EXPECT_LT((seconds_to_dribble<ResponseParser, Response>(wire, ParseResult::kNeedMore)),
            1.0);
}

TEST(RequestParser, HeaderBlockDribbleIsLinear) {
  std::string wire = "GET /h HTTP/1.1\r\n";
  for (int i = 0; i < 4000; ++i) wire += "X-a: b\r\n";
  wire += "\r\n";
  EXPECT_LT((seconds_to_dribble<RequestParser, Request>(wire, ParseResult::kMessage)),
            1.0);
}

TEST(RequestParser, EverySplitPointParsesTheSameMessage) {
  const std::string wire =
      "POST /q HTTP/1.1\r\nHost: broker\r\nX-QoS-Level: 3\r\n"
      "Content-Length: 11\r\n\r\nSELECT * 42";
  auto whole = parse_request(wire);
  ASSERT_TRUE(whole.has_value());
  for (size_t cut = 0; cut <= wire.size(); ++cut) {
    SCOPED_TRACE(testing::Message() << "cut=" << cut);
    RequestParser parser;
    Request req;
    parser.feed(std::string_view(wire).substr(0, cut));
    if (cut < wire.size()) {
      EXPECT_EQ(parser.next(req), ParseResult::kNeedMore);
    }
    parser.feed(std::string_view(wire).substr(cut));
    ASSERT_EQ(parser.next(req), ParseResult::kMessage);
    EXPECT_EQ(req.method, whole->method);
    EXPECT_EQ(req.target, whole->target);
    EXPECT_EQ(req.version, whole->version);
    EXPECT_EQ(req.headers.entries(), whole->headers.entries());
    EXPECT_EQ(req.body, whole->body);
    EXPECT_EQ(parser.buffered(), 0u);
    EXPECT_EQ(parser.next(req), ParseResult::kNeedMore);
  }
}

TEST(OneShot, IncompleteReturnsNullopt) {
  EXPECT_FALSE(parse_request("GET / HTTP/1.1\r\n").has_value());
  EXPECT_FALSE(parse_response("HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort").has_value());
}

}  // namespace
}  // namespace sbroker::http
