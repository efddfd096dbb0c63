// Reference model for core::OverloadController. A plain transcription of the
// paper's admission rule (forward class c while outstanding <
// threshold*c/levels), the AIMD threshold walk between its floor and ceiling,
// and the overload-mode hysteresis gets the same seeded stream of admission
// checks and feedback signals as the class; every outcome must be equal.
#include "core/overload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <random>
#include <string>

namespace sbroker::core {
namespace {

/// The documented behaviour, with its values written out: target = half the
/// deadline budget, +1 / x0.7 within [1, 4 x threshold], at least 8 samples,
/// enter after 2 breached intervals, leave after 4 clear ones.
struct Model {
  Model(int levels, double threshold, bool aimd, bool lifo)
      : levels(levels), threshold(threshold),
        ceiling(std::max(4.0 * threshold, 1.0)), aimd(aimd), lifo(lifo) {}

  double bound(int level) const {
    level = std::clamp(level, 1, levels);
    return threshold * level / levels;
  }
  bool admit(int level, double load) const { return load < bound(level); }

  void observe(double p95, uint64_t samples, double budget) {
    double target = 0.5 * budget;
    if (samples < 8 || target <= 0.0) return;
    ++stats.evals;
    bool breached = p95 > target;
    if (aimd && breached && threshold > 1.0) {
      threshold = std::max(1.0, threshold * 0.7);
      ++stats.decreases;
    } else if (aimd && !breached && threshold < ceiling) {
      threshold = std::min(ceiling, threshold + 1.0);
      ++stats.increases;
    }
    breaches = breached ? breaches + 1 : 0;
    clears = breached ? 0 : clears + 1;
    if (!overloaded && breaches >= 2) {
      overloaded = true;
      ++stats.enters;
    } else if (overloaded && clears >= 4) {
      overloaded = false;
      ++stats.exits;
    }
  }

  int levels;
  double threshold;
  double ceiling;
  bool aimd;
  bool lifo;
  bool overloaded = false;
  int breaches = 0;
  int clears = 0;
  OverloadStats stats;
};

struct Case {
  int levels;
  double threshold;
  OverloadPolicy policy;
  bool lifo;
};

// Names the case in --gtest_list_tests; without a printer gtest dumps the
// struct's bytes, padding included, and the listing differs per build.
void PrintTo(const Case& c, std::ostream* os) {
  *os << overload_policy_name(c.policy) << (c.lifo ? "+lifo" : "") << ", "
      << c.levels << " levels, threshold " << c.threshold;
}

class AdmissionModel : public ::testing::TestWithParam<Case> {};

TEST_P(AdmissionModel, ControllerAgreesWithTheModel) {
  const Case& c = GetParam();
  OverloadController ctl(QosRules{c.levels, c.threshold},
                         OverloadConfig{c.policy, c.lifo, 0.05});
  Model model(c.levels, c.threshold, c.policy == OverloadPolicy::kAimd, c.lifo);
  std::mt19937_64 rng(0x5eed ^ static_cast<uint64_t>(c.levels));
  auto uniform = [&rng](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  bool congested = false;  // regime: breaches likely, so streaks form
  for (int step = 0; step < 20000; ++step) {
    if (rng() % 5 != 0) {
      int level = static_cast<int>(rng() % (c.levels + 3)) - 1;  // -1..levels+1
      // Half the loads sit exactly on a class bound: `<` must drop them.
      double load = rng() % 2 == 0
                        ? model.bound(static_cast<int>(rng() % c.levels) + 1)
                        : std::floor(uniform(0.0, 1.2 * model.ceiling) * 4) / 4;
      ASSERT_EQ(ctl.admit(level, load), model.admit(level, load))
          << "step " << step << " level " << level << " load " << load;
      continue;
    }
    if (rng() % 16 == 0) congested = !congested;
    double budget = rng() % 8 == 0 ? 0.0 : 0.1;
    OverloadSignal signal;
    signal.samples = rng() % 16;
    signal.budget = budget;
    signal.p95 = uniform(0.0, 0.05) + (congested ? 0.03 : 0.0);
    ctl.observe(signal);
    model.observe(signal.p95, signal.samples, budget);
    ASSERT_EQ(ctl.threshold(), model.threshold) << "step " << step;
    ASSERT_EQ(ctl.overloaded(), model.overloaded) << "step " << step;
    ASSERT_EQ(ctl.lifo_active(), model.lifo && model.overloaded);
  }
  EXPECT_EQ(ctl.stats().evals, model.stats.evals);
  EXPECT_EQ(ctl.stats().increases, model.stats.increases);
  EXPECT_EQ(ctl.stats().decreases, model.stats.decreases);
  EXPECT_EQ(ctl.stats().enters, model.stats.enters);
  EXPECT_EQ(ctl.stats().exits, model.stats.exits);
  // The stream reached every state the model describes.
  EXPECT_GT(model.stats.enters, 0u);
  EXPECT_GT(model.stats.exits, 0u);
  if (model.aimd) {
    EXPECT_GT(model.stats.increases, 0u);
    EXPECT_GT(model.stats.decreases, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, AdmissionModel,
    ::testing::Values(Case{3, 20.0, OverloadPolicy::kStatic, false},
                      Case{3, 20.0, OverloadPolicy::kAimd, true},
                      Case{4, 6.0, OverloadPolicy::kAimd, false},
                      Case{8, 100.0, OverloadPolicy::kStatic, true},
                      Case{2, 2.0, OverloadPolicy::kAimd, true}),
    [](const ::testing::TestParamInfo<Case>& info) {
      const Case& c = info.param;
      return std::string(overload_policy_name(c.policy)) +
             (c.lifo ? "Lifo" : "") + "_" + std::to_string(c.levels) +
             "levels_threshold" + std::to_string(static_cast<int>(c.threshold));
    });

}  // namespace
}  // namespace sbroker::core
