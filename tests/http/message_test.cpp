#include "http/message.h"

#include <gtest/gtest.h>

namespace sbroker::http {
namespace {

TEST(Headers, CaseInsensitiveGet) {
  Headers h;
  h.set("Content-Type", "text/html");
  EXPECT_EQ(h.get("content-type"), "text/html");
  EXPECT_EQ(h.get("CONTENT-TYPE"), "text/html");
  EXPECT_FALSE(h.get("missing").has_value());
}

TEST(Headers, SetOverwrites) {
  Headers h;
  h.set("X-A", "1");
  h.set("x-a", "2");
  EXPECT_EQ(h.get("X-A"), "2");
  EXPECT_EQ(h.size(), 1u);
}

TEST(Request, SerializeAddsContentLength) {
  Request req;
  req.method = "POST";
  req.target = "/q";
  req.body = "hello";
  std::string wire = req.serialize();
  EXPECT_NE(wire.find("POST /q HTTP/1.1\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_NE(wire.find("\r\n\r\nhello"), std::string::npos);
}

TEST(Request, SerializeNoBodyNoLength) {
  Request req;
  std::string wire = req.serialize();
  EXPECT_EQ(wire.find("Content-Length"), std::string::npos);
}

TEST(Response, SerializeStatusLine) {
  Response resp = make_response(503, "busy");
  std::string wire = resp.serialize();
  EXPECT_NE(wire.find("HTTP/1.1 503 Service Unavailable\r\n"), std::string::npos);
  EXPECT_NE(wire.find("busy"), std::string::npos);
}

TEST(ReasonPhrase, KnownAndUnknown) {
  EXPECT_EQ(reason_phrase(200), "OK");
  EXPECT_EQ(reason_phrase(404), "Not Found");
  EXPECT_EQ(reason_phrase(418), "Unknown");
}

}  // namespace
}  // namespace sbroker::http
