#include "core/scheduler.h"

#include <gtest/gtest.h>

#include <string>

#include "util/rng.h"

namespace sbroker::core {
namespace {

TEST(Scheduler, PopsHighestClassFirst) {
  QosScheduler<std::string> s;
  s.push(1, "low");
  s.push(3, "high");
  s.push(2, "mid");
  EXPECT_EQ(s.pop(), "high");
  EXPECT_EQ(s.pop(), "mid");
  EXPECT_EQ(s.pop(), "low");
  EXPECT_FALSE(s.pop().has_value());
}

TEST(Scheduler, FifoWithinClass) {
  QosScheduler<int> s;
  for (int i = 0; i < 5; ++i) s.push(2, i);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(s.pop(), i);
}

TEST(Scheduler, FrontLevel) {
  QosScheduler<int> s;
  EXPECT_FALSE(s.front_level().has_value());
  s.push(1, 0);
  EXPECT_EQ(s.front_level(), 1);
  s.push(3, 0);
  EXPECT_EQ(s.front_level(), 3);
  s.pop();
  EXPECT_EQ(s.front_level(), 1);
}

TEST(Scheduler, PerClassLimit) {
  QosScheduler<int> s(2);
  EXPECT_TRUE(s.push(1, 0));
  EXPECT_TRUE(s.push(1, 1));
  EXPECT_FALSE(s.push(1, 2));
  EXPECT_EQ(s.rejected(), 1u);
  // Other classes still have room.
  EXPECT_TRUE(s.push(2, 3));
  EXPECT_EQ(s.size(), 3u);
}

TEST(Scheduler, ShedLowestDropsFromBottom) {
  QosScheduler<int> s;
  s.push(3, 30);
  s.push(1, 10);
  s.push(1, 11);
  s.push(2, 20);
  std::vector<std::pair<QosLevel, int>> dropped;
  size_t n = s.shed_lowest(3, [&](QosLevel level, int& item) {
    dropped.emplace_back(level, item);
  });
  EXPECT_EQ(n, 3u);
  ASSERT_EQ(dropped.size(), 3u);
  EXPECT_EQ(dropped[0], std::make_pair(1, 10));
  EXPECT_EQ(dropped[1], std::make_pair(1, 11));
  EXPECT_EQ(dropped[2], std::make_pair(2, 20));
  EXPECT_EQ(s.pop(), 30);
}

TEST(Scheduler, ShedMoreThanAvailable) {
  QosScheduler<int> s;
  s.push(1, 1);
  EXPECT_EQ(s.shed_lowest(10, [](QosLevel, int&) {}), 1u);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, SizeAt) {
  QosScheduler<int> s;
  s.push(1, 0);
  s.push(1, 0);
  s.push(2, 0);
  EXPECT_EQ(s.size_at(1), 2u);
  EXPECT_EQ(s.size_at(2), 1u);
  EXPECT_EQ(s.size_at(3), 0u);
}

TEST(Scheduler, LifoPopsNewestWithinClass) {
  QosScheduler<int> s;
  for (int i = 0; i < 5; ++i) s.push(2, i);
  s.set_lifo(true);
  for (int i = 4; i >= 0; --i) EXPECT_EQ(s.pop(), i);
}

TEST(Scheduler, LifoNeverOverridesClassPriority) {
  QosScheduler<std::string> s;
  s.set_lifo(true);
  s.push(1, "low-old");
  s.push(1, "low-new");
  s.push(3, "high-old");
  s.push(3, "high-new");
  // Class order still wins; LIFO only reverses order *within* the class.
  EXPECT_EQ(s.pop(), "high-new");
  EXPECT_EQ(s.pop(), "high-old");
  EXPECT_EQ(s.pop(), "low-new");
  EXPECT_EQ(s.pop(), "low-old");
}

TEST(Scheduler, LifoFlipMidStreamResumesFifoOverSurvivors) {
  QosScheduler<int> s;
  for (int i = 0; i < 6; ++i) s.push(2, i);
  s.set_lifo(true);
  EXPECT_EQ(s.pop(), 5);
  EXPECT_EQ(s.pop(), 4);
  // Exit overload: queued items kept their positions, so FIFO resumes over
  // the surviving oldest-first order.
  s.set_lifo(false);
  EXPECT_EQ(s.pop(), 0);
  EXPECT_EQ(s.pop(), 1);
  EXPECT_EQ(s.pop(), 2);
  EXPECT_EQ(s.pop(), 3);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, LifoShedLowestStillDropsOldestOfLowestClass) {
  QosScheduler<int> s;
  s.set_lifo(true);
  s.push(1, 10);
  s.push(1, 11);
  s.push(2, 20);
  std::vector<std::pair<QosLevel, int>> dropped;
  s.shed_lowest(1, [&](QosLevel level, int& item) {
    dropped.emplace_back(level, item);
  });
  // Shedding is deliberately FIFO-from-the-bottom even under LIFO pops: the
  // oldest entry of the lowest class is the one least likely to make its
  // deadline, so it is the victim.
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0], std::make_pair(1, 10));
  EXPECT_EQ(s.pop(), 20);
  EXPECT_EQ(s.pop(), 11);
}

// Property: random interleavings never dequeue a lower class while a higher
// class is waiting.
TEST(Scheduler, NeverInvertsPriorityUnderRandomWorkload) {
  util::Rng rng(77);
  QosScheduler<int> s;
  for (int step = 0; step < 10000; ++step) {
    if (s.empty() || rng.next_double() < 0.6) {
      int level = static_cast<int>(rng.uniform_int(1, 4));
      s.push(level, level);
    } else {
      auto front = s.front_level();
      auto item = s.pop();
      ASSERT_TRUE(item.has_value());
      EXPECT_EQ(*item, *front);
      // No queued item has a higher class than what we just popped.
      for (int higher = *front + 1; higher <= 4; ++higher) {
        EXPECT_EQ(s.size_at(higher), 0u);
      }
    }
  }
}

}  // namespace
}  // namespace sbroker::core
