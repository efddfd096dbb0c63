#include "ldap/sim_backend.h"

#include <gtest/gtest.h>

#include "core/cluster.h"

namespace sbroker::ldap {
namespace {

Directory small_org() {
  Directory dir;
  Entry root;
  root.dn = "o=acme";
  dir.add(root);
  Entry eng;
  eng.dn = "ou=eng,o=acme";
  dir.add(eng);
  Entry joe;
  joe.dn = "cn=joe,ou=eng,o=acme";
  joe.attributes.emplace("cn", "joe");
  joe.attributes.emplace("mail", "joe@acme.example");
  dir.add(joe);
  return dir;
}

TEST(ParseSearch, FullCommand) {
  auto cmd = parse_search("SEARCH base=o=acme scope=one filter=(cn=joe)");
  ASSERT_TRUE(cmd.has_value());
  EXPECT_EQ(cmd->base, "o=acme");
  EXPECT_EQ(cmd->filter.attribute, "cn");
  EXPECT_EQ(cmd->filter.value, "joe");
}

// One-level is the only scope: scope=one (any case) or no scope at all.
TEST(ParseSearch, ScopeVariants) {
  EXPECT_TRUE(parse_search("SEARCH base=o=a scope=one filter=(x=1)").has_value());
  EXPECT_TRUE(parse_search("SEARCH base=o=a scope=ONE filter=(x=1)").has_value());
  std::string error;
  EXPECT_FALSE(parse_search("SEARCH base=o=a scope=base filter=(x=1)", &error));
  EXPECT_EQ(error, "bad scope (expected one)");
  EXPECT_FALSE(parse_search("SEARCH base=o=a scope=sub filter=(x=1)", &error));
}

TEST(ParseSearch, DefaultsToOneLevel) {
  Directory dir = small_org();
  auto cmd = parse_search("SEARCH base=ou=eng,o=acme filter=(cn=joe)");
  ASSERT_TRUE(cmd.has_value());
  EXPECT_EQ(dir.search(cmd->base, cmd->filter).size(), 1u);
  auto from_root = parse_search("SEARCH base=o=acme filter=(cn=joe)");
  ASSERT_TRUE(from_root.has_value());
  EXPECT_TRUE(dir.search(from_root->base, from_root->filter).empty());
}

TEST(ParseSearch, Errors) {
  std::string error;
  EXPECT_FALSE(parse_search("FIND base=o=a filter=(x=1)", &error).has_value());
  EXPECT_FALSE(parse_search("SEARCH filter=(x=1)", &error).has_value());
  EXPECT_EQ(error, "missing base=");
  EXPECT_FALSE(parse_search("SEARCH base=o=a", &error).has_value());
  EXPECT_EQ(error, "missing filter=");
  EXPECT_FALSE(parse_search("SEARCH base=o=a scope=galaxy filter=(x=1)", &error));
  EXPECT_FALSE(parse_search("SEARCH base=o=a filter=(broken", &error).has_value());
  EXPECT_FALSE(parse_search("SEARCH base=o=a filter=(x=*)", &error).has_value());
  EXPECT_EQ(error, "malformed filter");
  EXPECT_FALSE(parse_search("SEARCH base=o=a bogus=1 filter=(x=1)", &error));
}

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

TEST(SimLdapBackend, AnswersSearch) {
  sim::Simulation sim;
  Directory dir = small_org();
  SimLdapBackend backend(sim, dir, LdapBackendConfig{});
  Reply r;
  backend.invoke({"SEARCH base=ou=eng,o=acme scope=one filter=(cn=joe)", false},
                 capture(r));
  sim.run();
  ASSERT_TRUE(r.fired);
  EXPECT_TRUE(r.ok);
  EXPECT_NE(r.payload.find("cn=joe,ou=eng,o=acme"), std::string::npos);
  EXPECT_NE(r.payload.find("mail=joe@acme.example"), std::string::npos);
}

TEST(SimLdapBackend, EmptyResultIsOk) {
  sim::Simulation sim;
  Directory dir = small_org();
  SimLdapBackend backend(sim, dir, LdapBackendConfig{});
  Reply r;
  backend.invoke({"SEARCH base=ou=eng,o=acme scope=one filter=(cn=nobody)", false},
                 capture(r));
  sim.run();
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.payload.empty());
}

TEST(SimLdapBackend, MalformedCommandFails) {
  sim::Simulation sim;
  Directory dir = small_org();
  SimLdapBackend backend(sim, dir, LdapBackendConfig{});
  Reply r;
  backend.invoke({"LOOKUP joe", false}, capture(r));
  sim.run();
  ASSERT_TRUE(r.fired);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(backend.failures(), 1u);
}

TEST(SimLdapBackend, BatchedSearchesSplitPerRecord) {
  sim::Simulation sim;
  Directory dir = small_org();
  SimLdapBackend backend(sim, dir, LdapBackendConfig{});
  std::string payload =
      std::string("SEARCH base=ou=eng,o=acme scope=one filter=(cn=joe)") +
      core::kRecordSep + "SEARCH base=ou=eng,o=acme scope=one filter=(cn=nobody)";
  Reply r;
  backend.invoke({payload, false}, capture(r));
  sim.run();
  ASSERT_TRUE(r.ok);
  auto parts = core::ClusterEngine::split_records(r.payload);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_NE(parts[0].find("cn=joe"), std::string::npos);
  EXPECT_TRUE(parts[1].empty());
}

TEST(SimLdapBackend, LinkDownFailsFast) {
  sim::Simulation sim;
  Directory dir = small_org();
  SimLdapBackend backend(sim, dir, LdapBackendConfig{});
  backend.request_link().set_down(true);
  Reply r;
  backend.invoke({"SEARCH base=ou=eng,o=acme filter=(cn=joe)", false}, capture(r));
  sim.run();
  ASSERT_TRUE(r.fired);
  EXPECT_FALSE(r.ok);
}

}  // namespace
}  // namespace sbroker::ldap
