// Integration: real sockets on localhost. The reactor runs on a background
// thread; the test thread drives blocking clients.
#include "net/http_server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <thread>
#include <vector>

#include "http/mget.h"
#include "net/http_client.h"

namespace sbroker::net {
namespace {

class HttpServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<HttpServer>(
        reactor_, 0, [](const http::Request& req, HttpServer::Responder respond) {
          respond(http::make_response(404, "no route for " + req.target));
        });
    server_->route("/hello", [](const http::Request&, HttpServer::Responder respond) {
      respond(http::make_response(200, "world"));
    });
    server_->route("/echo-qos", [](const http::Request& req,
                                   HttpServer::Responder respond) {
      respond(http::make_response(
          200, std::string(req.headers.get_view("X-QoS-Level").value_or("none"))));
    });
    thread_ = std::thread([this] { reactor_.run(); });
  }

  void TearDown() override {
    reactor_.stop();
    thread_.join();
  }

  http::Request get(std::string target) {
    http::Request req;
    req.target = std::move(target);
    return req;
  }

  Reactor reactor_;
  std::unique_ptr<HttpServer> server_;
  std::thread thread_;
};

TEST_F(HttpServerTest, RoutedTarget) {
  auto resp = http_fetch(server_->port(), get("/hello"));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->body, "world");
}

TEST_F(HttpServerTest, FallbackHandles404) {
  auto resp = http_fetch(server_->port(), get("/missing"));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 404);
  EXPECT_EQ(resp->body, "no route for /missing");
}

TEST_F(HttpServerTest, QosHeaderVisibleToHandler) {
  http::Request req = get("/echo-qos");
  req.headers.set("X-QoS-Level", "3");
  auto resp = http_fetch(server_->port(), req);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->body, "3");
}

TEST_F(HttpServerTest, MgetFansOutAndRecombines) {
  http::Request req = http::make_mget_request({"/hello", "/missing", "/hello"});
  auto resp = http_fetch(server_->port(), req);
  ASSERT_TRUE(resp.has_value());
  auto parts = http::split_mget_response(*resp);
  ASSERT_TRUE(parts.has_value());
  ASSERT_EQ(parts->size(), 3u);
  EXPECT_EQ((*parts)[0].body, "world");
  EXPECT_EQ((*parts)[1].status, 404);
  EXPECT_EQ((*parts)[2].body, "world");
}

TEST_F(HttpServerTest, ManySequentialClients) {
  for (int i = 0; i < 20; ++i) {
    auto resp = http_fetch(server_->port(), get("/hello"));
    ASSERT_TRUE(resp.has_value()) << "iteration " << i;
    EXPECT_EQ(resp->body, "world");
  }
  EXPECT_GE(server_->requests_served(), 20u);
}

TEST_F(HttpServerTest, ConcurrentClients) {
  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back([&] {
      auto resp = http_fetch(server_->port(), get("/hello"));
      if (resp && resp->body == "world") ++ok;
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok, 8);
}

TEST_F(HttpServerTest, DeferredResponseViaTimer) {
  // Stop the reactor thread before tearing down the default server: the
  // server's destructor deregisters fds on reactor_, which is only safe once
  // no other thread is polling it.
  reactor_.stop();
  thread_.join();
  server_ = nullptr;

  Reactor reactor2;
  HttpServer server(reactor2, 0,
                    [&reactor2](const http::Request&, HttpServer::Responder respond) {
                      reactor2.add_timer(0.05, [respond] {
                        respond(http::make_response(200, "late"));
                      });
                    });
  std::thread t([&] { reactor2.run(); });
  auto resp = http_fetch(server.port(), get("/anything"));
  reactor2.stop();
  t.join();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->body, "late");

  // Re-arm members so TearDown has something valid to stop.
  thread_ = std::thread([this] { reactor_.run(); });
}

/// Pipelines `kRequests` GETs on one connection to a server whose handlers
/// answer in reverse request order from reactor timers: one timer per
/// request, or (`same_cycle`) one timer answering every request. Returns the
/// response bodies in the order the client read them, plus how many
/// responses each of the client's reads completed.
constexpr size_t kRequests = 8;

/// Blocking loopback client socket with a 5 s read timeout; -1 on failure.
int connect_client(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  timeval timeout{5, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

struct PipelineRun {
  std::vector<std::string> bodies;
  std::vector<size_t> per_read;
};

PipelineRun run_reverse_pipeline(bool same_cycle) {
  Reactor reactor;
  std::vector<HttpServer::Responder> parked;
  HttpServer server(
      reactor, 0, [&](const http::Request& req, HttpServer::Responder respond) {
        size_t i = parked.size();
        parked.push_back([respond, body = req.target](http::Response) {
          respond(http::make_response(200, body));
        });
        if (!same_cycle) {
          reactor.add_timer(0.003 * static_cast<double>(kRequests - i),
                            [&parked, i] { parked[i]({}); });
        } else if (parked.size() == kRequests) {
          reactor.add_timer(0.01, [&parked] {
            for (size_t j = kRequests; j-- > 0;) parked[j]({});
          });
        }
      });
  std::thread thread([&] { reactor.run(); });

  PipelineRun run;
  int fd = connect_client(server.port());
  if (fd >= 0) {
    std::string burst;
    for (size_t i = 0; i < kRequests; ++i) {
      http::Request req;
      req.target = "/r" + std::to_string(i);
      burst += req.serialize();
    }
    if (::write(fd, burst.data(), burst.size()) ==
        static_cast<ssize_t>(burst.size())) {
      http::ResponseParser parser;
      char buf[65536];
      while (run.bodies.size() < kRequests) {
        ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n <= 0) break;
        parser.feed(std::string_view(buf, static_cast<size_t>(n)));
        size_t completed = 0;
        http::Response resp;
        while (parser.next(resp) == http::ParseResult::kMessage) {
          run.bodies.push_back(resp.body);
          ++completed;
        }
        run.per_read.push_back(completed);
      }
    }
  }
  ::close(fd);
  reactor.stop();
  thread.join();
  return run;
}

std::vector<std::string> request_order() {
  std::vector<std::string> order;
  for (size_t i = 0; i < kRequests; ++i) order.push_back("/r" + std::to_string(i));
  return order;
}

TEST(HttpServerPipelining, ReverseAnswersLeaveInRequestOrder) {
  // Request 0 answers last, so the seven answers before it are held back
  // and all eight are released together, in order, in one write.
  PipelineRun run = run_reverse_pipeline(/*same_cycle=*/false);
  EXPECT_EQ(run.bodies, request_order());
  EXPECT_EQ(run.per_read, std::vector<size_t>{8});
}

TEST(HttpServerPipelining, AnswersOfOneCycleLeaveInOneWrite) {
  PipelineRun run = run_reverse_pipeline(/*same_cycle=*/true);
  EXPECT_EQ(run.bodies, request_order());
  // One gather write lands as one segment, so the client's first read
  // holds every response; one write per response would arrive piecemeal.
  EXPECT_EQ(run.per_read, std::vector<size_t>{8});
}

TEST(HttpServerErrors, MalformedRequestGetsOne400ThenClose) {
  // The 400 waits for the cycle-end write, and 20 KiB of junk takes more
  // than one 16 KiB read: input after the error must not be parsed again
  // and answered with a second 400.
  Reactor reactor;
  HttpServer server(reactor, 0, [](const http::Request&, HttpServer::Responder respond) {
    respond(http::make_response(200, "ok"));
  });
  std::thread thread([&] { reactor.run(); });
  int fd = connect_client(server.port());
  ASSERT_GE(fd, 0);
  std::string junk = "BAD\r\n" + std::string(20 * 1024, 'x');
  ASSERT_EQ(::write(fd, junk.data(), junk.size()), static_cast<ssize_t>(junk.size()));
  std::string received;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) received.append(buf, static_cast<size_t>(n));
  ::close(fd);
  reactor.stop();
  thread.join();
  EXPECT_EQ(n, 0) << "expected the server to close after its answer";
  size_t answers = 0;
  for (size_t at = received.find("HTTP/1.1 400"); at != std::string::npos;
       at = received.find("HTTP/1.1 400", at + 1)) {
    ++answers;
  }
  EXPECT_EQ(answers, 1u) << received;
}

}  // namespace
}  // namespace sbroker::net
