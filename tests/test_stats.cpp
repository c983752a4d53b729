#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace harmony {
namespace {

TEST(RunningStats, MatchesClosedForm) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.count(), 8u);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  s.add(3.0);
  EXPECT_EQ(s.mean(), 3.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.cv(), 0.0);
}

TEST(RunningStats, CvOfExponentialIsOne) {
  Rng rng(3);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.exponential(100.0));
  EXPECT_NEAR(s.cv(), 1.0, 0.02);
}

TEST(WindowedRate, SteadyStream) {
  WindowedRate r(10 * kSecond);
  // 100 events/s for 20 seconds.
  for (int i = 0; i < 2000; ++i) r.record(i * 10 * kMillisecond);
  EXPECT_NEAR(r.rate(20 * kSecond), 100.0, 5.0);
}

TEST(WindowedRate, OldEventsExpire) {
  WindowedRate r(1 * kSecond);
  for (int i = 0; i < 100; ++i) r.record(i * kMillisecond);
  EXPECT_GT(r.rate(100 * kMillisecond), 0.0);
  EXPECT_EQ(r.rate(10 * kSecond), 0.0);
}

TEST(WindowedRate, EarlyWindowNotUnderReported) {
  WindowedRate r(10 * kSecond);
  // 1000/s but only for 1 second: rate should be ~1000, not ~100.
  for (int i = 0; i < 1000; ++i) r.record(i * kMillisecond);
  EXPECT_NEAR(r.rate(1 * kSecond), 1000.0, 100.0);
}

TEST(WindowedRate, TotalCountsEverything) {
  WindowedRate r(1 * kSecond);
  for (int i = 0; i < 50; ++i) r.record(i * kSecond);
  EXPECT_EQ(r.total(), 50u);
}

TEST(WindowedRate, BatchCounts) {
  WindowedRate r(10 * kSecond);
  r.record(1 * kSecond, 500);
  r.record(2 * kSecond, 500);
  EXPECT_NEAR(r.rate(2 * kSecond), 1000.0 / 2.0 * 2.0, 300.0);
  EXPECT_EQ(r.total(), 1000u);
}

TEST(Ewma, ConvergesToConstant) {
  Ewma e(1 * kSecond);
  for (int i = 0; i < 100; ++i) e.observe(i * kSecond, 42.0);
  EXPECT_NEAR(e.value(), 42.0, 1e-9);
}

TEST(Ewma, HalfLifeSemantics) {
  Ewma e(1 * kSecond);
  e.observe(0, 0.0);
  e.observe(1 * kSecond, 100.0);  // one half-life later
  EXPECT_NEAR(e.value(), 50.0, 1e-9);
}

TEST(Ewma, RecentDominatesAfterManyHalfLives) {
  Ewma e(100 * kMillisecond);
  e.observe(0, 1000.0);
  e.observe(10 * kSecond, 1.0);
  EXPECT_NEAR(e.value(), 1.0, 0.01);
}

TEST(Ewma, EmptyFlag) {
  Ewma e(kSecond);
  EXPECT_TRUE(e.empty());
  e.observe(0, 5.0);
  EXPECT_FALSE(e.empty());
  e.reset();
  EXPECT_TRUE(e.empty());
}

TEST(Entropy, UniformIsLogN) {
  std::vector<std::uint64_t> counts(16, 10);
  EXPECT_NEAR(shannon_entropy(counts), 4.0, 1e-9);
}

TEST(Entropy, ConcentratedIsZero) {
  std::vector<std::uint64_t> counts(16, 0);
  counts[3] = 100;
  EXPECT_EQ(shannon_entropy(counts), 0.0);
}

TEST(Entropy, EmptyIsZero) {
  EXPECT_EQ(shannon_entropy({}), 0.0);
  EXPECT_EQ(shannon_entropy({0, 0, 0}), 0.0);
}

TEST(Entropy, SkewLowersEntropy) {
  std::vector<std::uint64_t> uniform(8, 100);
  std::vector<std::uint64_t> skewed = {700, 100, 50, 50, 25, 25, 25, 25};
  EXPECT_LT(shannon_entropy(skewed), shannon_entropy(uniform));
}

}  // namespace
}  // namespace harmony
