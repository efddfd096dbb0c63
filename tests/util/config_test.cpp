#include "util/config.h"

#include <gtest/gtest.h>

namespace sbroker::util {
namespace {

TEST(Config, FromArgs) {
  const char* argv[] = {"prog", "clients=40", "rate=2.5", "positional", "flag=true"};
  std::vector<std::string> positional;
  Config cfg = Config::from_args(5, argv, &positional);
  EXPECT_EQ(cfg.get_int("clients", 0), 40);
  EXPECT_DOUBLE_EQ(cfg.get_double("rate", 0), 2.5);
  EXPECT_TRUE(cfg.get_bool("flag", false));
  ASSERT_EQ(positional.size(), 1u);
  EXPECT_EQ(positional[0], "positional");
}

TEST(Config, DefaultsWhenAbsent) {
  Config cfg;
  EXPECT_EQ(cfg.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(cfg.get_double("missing", 1.5), 1.5);
  EXPECT_EQ(cfg.get_string("missing", "d"), "d");
  EXPECT_TRUE(cfg.get_bool("missing", true));
  EXPECT_FALSE(cfg.has("missing"));
}

TEST(Config, ThrowsOnMalformedPresentValue) {
  Config cfg;
  cfg.set("n", "abc");
  EXPECT_THROW(cfg.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(cfg.get_double("n", 0), std::invalid_argument);
  EXPECT_THROW(cfg.get_bool("n", false), std::invalid_argument);
}

TEST(Config, BoolSpellings) {
  Config cfg;
  for (const char* t : {"1", "true", "YES", "On"}) {
    cfg.set("k", t);
    EXPECT_TRUE(cfg.get_bool("k", false)) << t;
  }
  for (const char* f : {"0", "FALSE", "no", "off"}) {
    cfg.set("k", f);
    EXPECT_FALSE(cfg.get_bool("k", true)) << f;
  }
}

TEST(Config, SetOverwrites) {
  Config cfg;
  cfg.set("k", "1");
  cfg.set("k", "2");
  EXPECT_EQ(cfg.get_int("k", 0), 2);
}

}  // namespace
}  // namespace sbroker::util
