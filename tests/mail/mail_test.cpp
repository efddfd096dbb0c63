#include <gtest/gtest.h>

#include "core/cluster.h"
#include "mail/sim_backend.h"
#include "mail/store.h"

namespace sbroker::mail {
namespace {

// --------------------------------------------------------------------------
// MailStore

TEST(MailStore, DeliverList) {
  MailStore store;
  uint64_t id = store.deliver("joe", "jane", "hello", "lunch at noon?");
  EXPECT_EQ(id, 1u);
  auto headers = store.list("joe");
  ASSERT_EQ(headers.size(), 1u);
  EXPECT_EQ(headers[0].id, id);
  EXPECT_EQ(headers[0].from, "jane");
  EXPECT_EQ(headers[0].subject, "hello");
}

TEST(MailStore, IdsArePerMailbox) {
  MailStore store;
  EXPECT_EQ(store.deliver("a", "x", "s1", "b"), 1u);
  EXPECT_EQ(store.deliver("a", "x", "s2", "b"), 2u);
  EXPECT_EQ(store.deliver("b", "x", "s1", "b"), 1u);
  EXPECT_EQ(store.list("a").size(), 2u);
  EXPECT_EQ(store.list("b").size(), 1u);
  EXPECT_EQ(store.total_delivered(), 3u);
}

TEST(MailStore, UnknownUserListsEmpty) {
  MailStore store;
  EXPECT_TRUE(store.list("ghost").empty());
  store.deliver("joe", "x", "s", "b");
  EXPECT_TRUE(store.list("ghost").empty());
}

TEST(MailStore, ListOrderedById) {
  MailStore store;
  store.deliver("joe", "a", "first", "b");
  store.deliver("joe", "b", "second", "b");
  store.deliver("joe", "c", "third", "b");
  auto headers = store.list("joe");
  ASSERT_EQ(headers.size(), 3u);
  EXPECT_LT(headers[0].id, headers[1].id);
  EXPECT_LT(headers[1].id, headers[2].id);
}

// --------------------------------------------------------------------------
// Command protocol

TEST(MailCommands, SendList) {
  MailStore store;
  auto [ok1, sent] = execute_command(store, "SEND|joe|jane|hi there|body text");
  EXPECT_TRUE(ok1);
  EXPECT_EQ(sent, "sent 1");

  auto [ok2, listing] = execute_command(store, "LIST|joe");
  EXPECT_TRUE(ok2);
  EXPECT_EQ(listing, "1\tjane\thi there\n");
}

TEST(MailCommands, Errors) {
  MailStore store;
  EXPECT_FALSE(execute_command(store, "NOOP").first);
  EXPECT_FALSE(execute_command(store, "SEND|joe|jane|missing-body").first);
  EXPECT_FALSE(execute_command(store, "LIST").first);
  EXPECT_FALSE(execute_command(store, "LIST|joe|extra").first);
  EXPECT_FALSE(execute_command(store, "").first);
  // SEND and LIST are the whole protocol.
  store.deliver("joe", "jane", "s", "b");
  const std::pair<bool, std::string> unknown{false, "unknown command"};
  EXPECT_EQ(execute_command(store, "FETCH|joe|1"), unknown);
  EXPECT_EQ(execute_command(store, "DELETE|joe|1"), unknown);
  EXPECT_EQ(store.list("joe").size(), 1u);
}

TEST(MailCommands, SubjectAndBodyMayContainSpaces) {
  MailStore store;
  EXPECT_TRUE(
      execute_command(store, "SEND|joe|jane|a subject with spaces|a body with spaces").first);
  auto [ok, listing] = execute_command(store, "LIST|joe");
  EXPECT_TRUE(ok);
  EXPECT_EQ(listing, "1\tjane\ta subject with spaces\n");
}

// --------------------------------------------------------------------------
// SimMailBackend

struct Reply {
  bool fired = false;
  bool ok = false;
  std::string payload;
};

core::Backend::Completion capture(Reply& r) {
  return [&r](double, bool ok, const std::string& payload) {
    r.fired = true;
    r.ok = ok;
    r.payload = payload;
  };
}

TEST(SimMailBackend, EndToEndCommands) {
  sim::Simulation sim;
  MailStore store;
  SimMailBackend backend(sim, store, MailBackendConfig{});
  Reply sent, listed;
  backend.invoke({"SEND|joe|jane|subj|hello", false}, capture(sent));
  sim.run();
  ASSERT_TRUE(sent.ok);
  backend.invoke({"LIST|joe", false}, capture(listed));
  sim.run();
  ASSERT_TRUE(listed.ok);
  EXPECT_EQ(listed.payload, "1\tjane\tsubj\n");
}

TEST(SimMailBackend, BatchedCommands) {
  sim::Simulation sim;
  MailStore store;
  SimMailBackend backend(sim, store, MailBackendConfig{});
  std::string payload = std::string("SEND|a|b|s1|x") + core::kRecordSep + "SEND|a|b|s2|y" +
                        core::kRecordSep + "LIST|a";
  Reply r;
  backend.invoke({payload, false}, capture(r));
  sim.run();
  ASSERT_TRUE(r.ok);
  auto parts = core::ClusterEngine::split_records(r.payload);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "sent 1");
  EXPECT_EQ(parts[1], "sent 2");
  EXPECT_EQ(parts[2], "1\tb\ts1\n2\tb\ts2\n");
}

TEST(SimMailBackend, BadCommandFailsCall) {
  sim::Simulation sim;
  MailStore store;
  SimMailBackend backend(sim, store, MailBackendConfig{});
  Reply r;
  backend.invoke({"EXPUNGE|joe", false}, capture(r));
  sim.run();
  ASSERT_TRUE(r.fired);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(backend.failures(), 1u);
}

TEST(SimMailBackend, RejectedCommandDoesNotRun) {
  // One worker and no queue: the second SEND arrives while the first is in
  // service, is refused, and must leave the store untouched.
  sim::Simulation sim;
  MailStore store;
  MailBackendConfig cfg;
  cfg.capacity = 1;
  cfg.queue_limit = 0;
  SimMailBackend backend(sim, store, cfg);
  Reply first, second;
  backend.invoke({"SEND|joe|jane|one|a", false}, capture(first));
  backend.invoke({"SEND|joe|jane|two|b", false}, capture(second));
  sim.run();
  ASSERT_TRUE(first.fired && second.fired);
  EXPECT_TRUE(first.ok);
  EXPECT_FALSE(second.ok);
  EXPECT_EQ(second.payload, "backend queue full");
  EXPECT_EQ(execute_command(store, "LIST|joe").second, "1\tjane\tone\n");
  EXPECT_EQ(backend.failures(), 1u);
}

TEST(SimMailBackend, LinkDownFailsFast) {
  sim::Simulation sim;
  MailStore store;
  SimMailBackend backend(sim, store, MailBackendConfig{});
  backend.request_link().set_down(true);
  Reply r;
  backend.invoke({"LIST|joe", false}, capture(r));
  sim.run();
  ASSERT_TRUE(r.fired);
  EXPECT_FALSE(r.ok);
}

}  // namespace
}  // namespace sbroker::mail
