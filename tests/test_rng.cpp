#include "common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/check.h"
#include "common/stats.h"

namespace harmony {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkedStreamsAreIndependentAndDeterministic) {
  Rng parent1(7), parent2(7);
  Rng childa = parent1.fork(1);
  Rng childb = parent2.fork(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(childa.next(), childb.next());

  // Different salts give different streams.
  Rng parent3(7);
  Rng child1 = parent3.fork(1);
  Rng parent4(7);
  Rng child2 = parent4.fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (child1.next() == child2.next()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformU64RespectsBound) {
  Rng rng(42);
  for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 2000; ++i) {
      ASSERT_LT(rng.uniform_u64(bound), bound);
    }
  }
}

TEST(Rng, UniformU64CoversAllValues) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_u64(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(5);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.exponential(250.0));
  EXPECT_NEAR(s.mean(), 250.0, 5.0);
}

TEST(Rng, ExponentialZeroMeanIsZero) {
  Rng rng(5);
  EXPECT_EQ(rng.exponential(0.0), 0.0);
  EXPECT_EQ(rng.exponential(-1.0), 0.0);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, LognormalMedian) {
  Rng rng(23);
  std::vector<double> xs;
  xs.reserve(100001);
  for (int i = 0; i < 100001; ++i) xs.push_back(rng.lognormal_median(800.0, 0.3));
  std::nth_element(xs.begin(), xs.begin() + 50000, xs.end());
  EXPECT_NEAR(xs[50000], 800.0, 20.0);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, WeightedIndexProportions) {
  Rng rng(31);
  const double w[3] = {1.0, 2.0, 7.0};
  std::uint64_t counts[3] = {0, 0, 0};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.weighted_index(w, 3)];
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.1, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.2, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.7, 0.01);
}

TEST(Rng, WeightedIndexZeroWeightNeverPicked) {
  Rng rng(33);
  const double w[3] = {1.0, 0.0, 1.0};
  for (int i = 0; i < 10000; ++i) EXPECT_NE(rng.weighted_index(w, 3), 1u);
}

TEST(Rng, WeightedIndexRejectsZeroSum) {
  Rng rng(1);
  const double w[2] = {0.0, 0.0};
  EXPECT_THROW(rng.weighted_index(w, 2), CheckError);
}

TEST(Rng, SplitMix64KnownProgression) {
  std::uint64_t s = 0;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
  std::uint64_t s2 = 0;
  EXPECT_EQ(splitmix64(s2), a);
}

}  // namespace
}  // namespace harmony
