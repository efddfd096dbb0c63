#include "util/strings.h"

#include <gtest/gtest.h>

namespace sbroker::util {
namespace {

TEST(Split, PreservesEmptyFields) {
  auto parts = split(",a,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(Split, SingleFieldWithoutSeparator) {
  auto parts = split("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(Split, EmptyInputYieldsOneEmptyField) {
  auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(SplitSkipEmpty, DropsEmptyFields) {
  auto parts = split_skip_empty("a,,b,", ',');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
}

TEST(Trim, RemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\na b\r "), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(ToLower, AsciiOnly) { EXPECT_EQ(to_lower("AbC-12"), "abc-12"); }

TEST(IEquals, CaseInsensitive) {
  EXPECT_TRUE(iequals("Content-Length", "content-length"));
  EXPECT_FALSE(iequals("a", "ab"));
  EXPECT_FALSE(iequals("abc", "abd"));
  EXPECT_TRUE(iequals("", ""));
}

TEST(StartsWith, Basic) {
  EXPECT_TRUE(starts_with("SELECT * FROM t", "SELECT"));
  EXPECT_FALSE(starts_with("SEL", "SELECT"));
  EXPECT_TRUE(starts_with("x", ""));
}

TEST(ParseInt, Valid) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-7"), -7);
  EXPECT_EQ(parse_int(" 13 "), 13);
  EXPECT_EQ(parse_int("0"), 0);
}

TEST(ParseInt, Invalid) {
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("12x").has_value());
  EXPECT_FALSE(parse_int("x12").has_value());
  EXPECT_FALSE(parse_int("1.5").has_value());
  EXPECT_FALSE(parse_int("99999999999999999999999").has_value());
}

TEST(ParseDouble, Valid) {
  EXPECT_DOUBLE_EQ(parse_double("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(parse_double("-0.25").value(), -0.25);
  EXPECT_DOUBLE_EQ(parse_double("7").value(), 7.0);
}

TEST(ParseDouble, Invalid) {
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("abc").has_value());
  EXPECT_FALSE(parse_double("1.2.3").has_value());
}

}  // namespace
}  // namespace sbroker::util
