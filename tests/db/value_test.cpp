#include "db/value.h"

#include <gtest/gtest.h>

namespace sbroker::db {
namespace {

TEST(Value, TypesAndAccessors) {
  EXPECT_EQ(Value().type(), Type::kInt);  // the default is INT 0
  EXPECT_EQ(Value().as_int(), 0);
  EXPECT_EQ(Value(int64_t{7}).type(), Type::kInt);
  EXPECT_EQ(Value(7).as_int(), 7);  // int64_t implicit
  EXPECT_EQ(Value(1.5).type(), Type::kReal);
  EXPECT_DOUBLE_EQ(Value(1.5).as_real(), 1.5);
  EXPECT_EQ(Value("hi").type(), Type::kText);
  EXPECT_EQ(Value("hi").as_text(), "hi");
}

TEST(Value, NumericCrossTypeCompare) {
  EXPECT_EQ(Value(2).compare(Value(2.0)), 0);
  EXPECT_LT(Value(1).compare(Value(1.5)), 0);
  EXPECT_GT(Value(2.5).compare(Value(2)), 0);
}

TEST(Value, TextCompare) {
  EXPECT_LT(Value("abc").compare(Value("abd")), 0);
  EXPECT_EQ(Value("x").compare(Value("x")), 0);
}

TEST(Value, TextVsNumericThrows) {
  EXPECT_THROW(Value("1").compare(Value(1)), std::invalid_argument);
  EXPECT_THROW(Value(1).compare(Value("1")), std::invalid_argument);
}

TEST(Value, NumericViewThrowsOnText) {
  EXPECT_THROW(Value("x").numeric(), std::invalid_argument);
  EXPECT_DOUBLE_EQ(Value(3).numeric(), 3.0);
}

TEST(Value, ToString) {
  EXPECT_EQ(Value(42).to_string(), "42");
  EXPECT_EQ(Value("t").to_string(), "'t'");
}

TEST(Value, HashEqualForNumericallyEqualIntReal) {
  EXPECT_EQ(Value(3).hash(), Value(3.0).hash());
}

TEST(Value, OperatorsDelegateToCompare) {
  EXPECT_TRUE(Value(1) < Value(2));
  EXPECT_TRUE(Value(2) == Value(2.0));
  EXPECT_FALSE(Value(2) < Value(2));
}

TEST(TypeName, AllNames) {
  EXPECT_STREQ(type_name(Type::kInt), "INT");
  EXPECT_STREQ(type_name(Type::kReal), "REAL");
  EXPECT_STREQ(type_name(Type::kText), "TEXT");
}

}  // namespace
}  // namespace sbroker::db
