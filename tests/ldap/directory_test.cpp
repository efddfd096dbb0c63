#include "ldap/directory.h"

#include <gtest/gtest.h>

namespace sbroker::ldap {
namespace {

Entry make_entry(std::string dn,
                 std::vector<std::pair<std::string, std::string>> attrs) {
  Entry e;
  e.dn = std::move(dn);
  for (auto& [k, v] : attrs) e.attributes.emplace(std::move(k), std::move(v));
  return e;
}

Directory org() {
  Directory dir;
  EXPECT_TRUE(dir.add(make_entry("o=acme", {{"o", "acme"}})));
  EXPECT_TRUE(dir.add(make_entry("ou=eng,o=acme", {{"ou", "eng"}})));
  EXPECT_TRUE(dir.add(make_entry("ou=sales,o=acme", {{"ou", "sales"}})));
  EXPECT_TRUE(dir.add(make_entry(
      "cn=joe,ou=eng,o=acme",
      {{"cn", "joe"}, {"mail", "joe@acme.example"}, {"title", "engineer"}})));
  EXPECT_TRUE(dir.add(make_entry(
      "cn=jane,ou=eng,o=acme",
      {{"cn", "jane"}, {"mail", "jane@acme.example"}, {"title", "manager"}})));
  EXPECT_TRUE(dir.add(
      make_entry("cn=sam,ou=sales,o=acme", {{"cn", "sam"}, {"title", "rep"}})));
  return dir;
}

TEST(Dn, Parent) {
  EXPECT_EQ(parent_dn("cn=a,ou=b,o=c"), "ou=b,o=c");
  EXPECT_EQ(parent_dn("o=c"), "");
}

// Equality is the one filter kind: presence "(attr=*)" and prefix
// "(attr=pre*)" filters are malformed.
TEST(Filter, ParseKinds) {
  auto eq = Filter::parse("(cn=joe)");
  ASSERT_TRUE(eq.has_value());
  EXPECT_EQ(eq->attribute, "cn");
  EXPECT_EQ(eq->value, "joe");
  EXPECT_FALSE(Filter::parse("(mail=*)").has_value());
  EXPECT_FALSE(Filter::parse("(cn=jo*)").has_value());
}

TEST(Filter, ParseRejectsMalformed) {
  EXPECT_FALSE(Filter::parse("cn=joe").has_value());
  EXPECT_FALSE(Filter::parse("(noequals)").has_value());
  EXPECT_FALSE(Filter::parse("(=v)").has_value());
  EXPECT_FALSE(Filter::parse("()").has_value());
  EXPECT_FALSE(Filter::parse("").has_value());
}

TEST(Filter, Matching) {
  Entry joe = make_entry("cn=joe", {{"cn", "joe"}, {"mail", "joe@x"}});
  EXPECT_TRUE(Filter::parse("(cn=joe)")->matches(joe));
  EXPECT_FALSE(Filter::parse("(cn=jane)")->matches(joe));
  EXPECT_FALSE(Filter::parse("(cn=jo)")->matches(joe));
  EXPECT_FALSE(Filter::parse("(phone=joe)")->matches(joe));
}

TEST(Filter, MultiValuedAttributeAnyMatch) {
  Entry e = make_entry("cn=x", {{"mail", "a@x"}, {"mail", "b@x"}});
  EXPECT_TRUE(Filter::parse("(mail=b@x)")->matches(e));
}

TEST(Directory, AddRequiresParent) {
  Directory dir;
  EXPECT_FALSE(dir.add(make_entry("cn=orphan,o=nowhere", {})));
  EXPECT_TRUE(dir.add(make_entry("o=root", {})));
  EXPECT_TRUE(dir.add(make_entry("cn=child,o=root", {})));
  EXPECT_FALSE(dir.add(make_entry("cn=child,o=root", {})));  // duplicate
  EXPECT_EQ(dir.size(), 2u);
}

TEST(Directory, FindByDn) {
  Directory dir = org();
  const Entry* joe = dir.find("cn=joe,ou=eng,o=acme");
  ASSERT_NE(joe, nullptr);
  EXPECT_EQ(joe->attributes.find("mail")->second, "joe@acme.example");
  EXPECT_EQ(dir.find("cn=nobody,o=acme"), nullptr);
}

TEST(Directory, OneLevelSearch) {
  Directory dir = org();
  auto hits = dir.search("ou=eng,o=acme", *Filter::parse("(title=engineer)"));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->dn, "cn=joe,ou=eng,o=acme");
  // One-level does not see the base itself or grandchildren.
  EXPECT_TRUE(dir.search("o=acme", *Filter::parse("(title=engineer)")).empty());
  EXPECT_TRUE(dir.search("cn=joe,ou=eng,o=acme", *Filter::parse("(cn=joe)")).empty());
}

TEST(Directory, UnknownBaseIsEmpty) {
  Directory dir = org();
  EXPECT_TRUE(dir.search("o=ghost", *Filter::parse("(cn=joe)")).empty());
}

TEST(Directory, SearchStatsCountWork) {
  Directory dir = org();
  Directory::SearchStats stats;
  dir.search("ou=eng,o=acme", *Filter::parse("(title=manager)"), &stats);
  EXPECT_EQ(stats.entries_examined, 2u);
  EXPECT_EQ(stats.entries_matched, 1u);
}

}  // namespace
}  // namespace sbroker::ldap
