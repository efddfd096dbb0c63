#include "core/scheduler.h"

#include <gtest/gtest.h>

#include <array>
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

// Property: random interleavings never dequeue a lower class while a higher
// class is waiting. Each item is its own level; the test keeps the queued
// count per level beside the scheduler.
TEST(Scheduler, NeverInvertsPriorityUnderRandomWorkload) {
  util::Rng rng(77);
  QosScheduler<int> s;
  std::array<int, 5> queued{};  // [level], levels 1..4
  for (int step = 0; step < 10000; ++step) {
    if (s.empty() || rng.next_double() < 0.6) {
      int level = static_cast<int>(rng.uniform_int(1, 4));
      s.push(level, level);
      ++queued[level];
    } else {
      auto item = s.pop();
      ASSERT_TRUE(item.has_value());
      ASSERT_GT(queued[*item], 0);
      --queued[*item];
      // No queued item has a higher class than what we just popped.
      for (int higher = *item + 1; higher <= 4; ++higher) {
        EXPECT_EQ(queued[higher], 0);
      }
    }
  }
}

}  // namespace
}  // namespace sbroker::core
