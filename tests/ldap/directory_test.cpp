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

TEST(Dn, ParentAndDepth) {
  EXPECT_EQ(parent_dn("cn=a,ou=b,o=c"), "ou=b,o=c");
  EXPECT_EQ(parent_dn("o=c"), "");
  EXPECT_EQ(dn_depth(""), 0u);
  EXPECT_EQ(dn_depth("o=c"), 1u);
  EXPECT_EQ(dn_depth("cn=a,ou=b,o=c"), 3u);
}

TEST(Dn, Under) {
  EXPECT_TRUE(dn_under("cn=a,o=c", "o=c"));
  EXPECT_TRUE(dn_under("o=c", "o=c"));
  EXPECT_FALSE(dn_under("o=c", "cn=a,o=c"));
  EXPECT_FALSE(dn_under("cn=a,o=cc", "o=c"));
  EXPECT_TRUE(dn_under("anything", ""));
}

TEST(Filter, ParseKinds) {
  auto eq = Filter::parse("(cn=joe)");
  ASSERT_TRUE(eq.has_value());
  EXPECT_EQ(eq->kind, Filter::Kind::kEquality);
  EXPECT_EQ(eq->attribute, "cn");
  EXPECT_EQ(eq->value, "joe");

  auto presence = Filter::parse("(mail=*)");
  ASSERT_TRUE(presence.has_value());
  EXPECT_EQ(presence->kind, Filter::Kind::kPresence);

  auto prefix = Filter::parse("(cn=jo*)");
  ASSERT_TRUE(prefix.has_value());
  EXPECT_EQ(prefix->kind, Filter::Kind::kPrefix);
  EXPECT_EQ(prefix->value, "jo");
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
  EXPECT_TRUE(Filter::parse("(mail=*)")->matches(joe));
  EXPECT_FALSE(Filter::parse("(phone=*)")->matches(joe));
  EXPECT_TRUE(Filter::parse("(cn=j*)")->matches(joe));
  EXPECT_FALSE(Filter::parse("(cn=k*)")->matches(joe));
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
  EXPECT_EQ(joe->attribute("mail"), "joe@acme.example");
  EXPECT_EQ(dir.find("cn=nobody,o=acme"), nullptr);
}

TEST(Directory, BaseScopeSearch) {
  Directory dir = org();
  auto hits = dir.search("cn=joe,ou=eng,o=acme", Scope::kBase, *Filter::parse("(cn=*)"));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->dn, "cn=joe,ou=eng,o=acme");
}

TEST(Directory, OneLevelSearch) {
  Directory dir = org();
  auto hits = dir.search("ou=eng,o=acme", Scope::kOneLevel, *Filter::parse("(cn=*)"));
  EXPECT_EQ(hits.size(), 2u);
  // One-level does not see the base itself or grandchildren.
  auto top = dir.search("o=acme", Scope::kOneLevel, *Filter::parse("(cn=*)"));
  EXPECT_TRUE(top.empty());  // children are OUs without cn
}

TEST(Directory, SubtreeSearch) {
  Directory dir = org();
  auto engineers =
      dir.search("o=acme", Scope::kSubtree, *Filter::parse("(title=engineer)"));
  ASSERT_EQ(engineers.size(), 1u);
  EXPECT_EQ(engineers[0]->dn, "cn=joe,ou=eng,o=acme");
  auto all_cn = dir.search("o=acme", Scope::kSubtree, *Filter::parse("(cn=*)"));
  EXPECT_EQ(all_cn.size(), 3u);
}

TEST(Directory, UnknownBaseIsEmpty) {
  Directory dir = org();
  EXPECT_TRUE(
      dir.search("o=ghost", Scope::kSubtree, *Filter::parse("(cn=*)")).empty());
}

TEST(Directory, SearchStatsCountWork) {
  Directory dir = org();
  Directory::SearchStats stats;
  dir.search("o=acme", Scope::kSubtree, *Filter::parse("(title=rep)"), &stats);
  EXPECT_EQ(stats.entries_examined, 6u);
  EXPECT_EQ(stats.entries_matched, 1u);
}

}  // namespace
}  // namespace sbroker::ldap
