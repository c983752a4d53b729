#include "common/distributions.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "common/check.h"

namespace harmony {
namespace {

TEST(UniformKeys, Coverage) {
  Rng rng(1);
  UniformKeys d(100);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const auto k = d.next(rng);
    ASSERT_LT(k, 100u);
    seen.insert(k);
  }
  EXPECT_EQ(seen.size(), 100u);
}

TEST(UniformKeys, GrowExtendsDomain) {
  Rng rng(2);
  UniformKeys d(10);
  d.grow(20);
  EXPECT_EQ(d.item_count(), 20u);
  bool above = false;
  for (int i = 0; i < 1000; ++i) above |= d.next(rng) >= 10;
  EXPECT_TRUE(above);
}

// Zipfian: empirical frequency of the hottest ranks must match the pmf.
class ZipfianPmf : public ::testing::TestWithParam<double> {};

TEST_P(ZipfianPmf, EmpiricalMatchesTheoretical) {
  const double theta = GetParam();
  Rng rng(42);
  const std::uint64_t n = 1000;
  ZipfianKeys d(n, theta);
  std::map<std::uint64_t, std::uint64_t> counts;
  const int samples = 200000;
  for (int i = 0; i < samples; ++i) ++counts[d.next(rng)];
  for (std::uint64_t rank : {0ULL, 1ULL, 2ULL, 10ULL}) {
    const double expected = d.pmf(rank);
    const double got = static_cast<double>(counts[rank]) / samples;
    EXPECT_NEAR(got, expected, expected * 0.15 + 0.001)
        << "rank " << rank << " theta " << theta;
  }
}

INSTANTIATE_TEST_SUITE_P(Thetas, ZipfianPmf,
                         ::testing::Values(0.5, 0.8, 0.99));

TEST(ZipfianKeys, RankZeroIsHottest) {
  Rng rng(7);
  ZipfianKeys d(10000);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) ++counts[d.next(rng)];
  for (const auto& [k, c] : counts) {
    if (k == 0) continue;
    EXPECT_GE(counts[0], c);
  }
}

TEST(ZipfianKeys, PmfSumsToOne) {
  ZipfianKeys d(500, 0.99);
  double sum = 0;
  for (std::uint64_t r = 0; r < 500; ++r) sum += d.pmf(r);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfianKeys, RejectsThetaOutOfRange) {
  EXPECT_THROW(ZipfianKeys(10, 1.0), CheckError);
  EXPECT_THROW(ZipfianKeys(10, 0.0), CheckError);
}

TEST(ZipfianKeys, GrowKeepsDistributionValid) {
  Rng rng(3);
  ZipfianKeys d(100);
  d.grow(200);
  EXPECT_EQ(d.item_count(), 200u);
  for (int i = 0; i < 1000; ++i) ASSERT_LT(d.next(rng), 200u);
}

TEST(ZipfianKeys, IncrementalGrowMatchesFromScratch) {
  // grow() extends the zeta harmonic sum incrementally (YCSB / Gray et al.)
  // from the old n instead of re-summing from 1. The incremental path adds
  // the same terms in the same left-to-right order as a from-scratch
  // construction, so the resulting constants — and therefore every pmf value
  // and every future draw — are bit-identical, not merely close.
  ZipfianKeys grown(100, 0.99);
  grown.grow(5000);
  ZipfianKeys fresh(5000, 0.99);
  for (const std::uint64_t r : {0ULL, 1ULL, 99ULL, 100ULL, 2500ULL, 4999ULL}) {
    EXPECT_DOUBLE_EQ(grown.pmf(r), fresh.pmf(r)) << "rank " << r;
  }
  Rng a(21), b(21);
  for (int i = 0; i < 2000; ++i) ASSERT_EQ(grown.next(a), fresh.next(b)) << i;
}

TEST(ScrambledZipfian, CopiedConstantsDrawLikeAFreshOne) {
  // The open-loop runner builds its users from the request keys' constants
  // (the same theta, grown to the user count) instead of summing zeta again.
  // Equal n and a grown smaller n must both give the fresh constants exactly.
  constexpr std::uint64_t kN = 20'000;
  for (const std::uint64_t from : {kN, std::uint64_t{1'500}}) {
    ScrambledZipfianKeys copied{ZipfianKeys(from, 0.99)};
    copied.grow(kN);
    ScrambledZipfianKeys fresh(kN, 0.99);
    ASSERT_EQ(copied.item_count(), kN);
    for (const std::uint64_t r : {0ULL, 1ULL, 1'499ULL, 1'500ULL, 19'999ULL}) {
      EXPECT_EQ(copied.pmf(r), fresh.pmf(r)) << "from " << from << " rank " << r;
    }
    Rng a(33), b(33);
    for (int i = 0; i < 100'000; ++i) {
      ASSERT_EQ(copied.next(a), fresh.next(b)) << "from " << from << " draw " << i;
    }
  }
}

TEST(ZipfianKeys, GrowByOneIsIncrementalNotQuadratic) {
  // Insert workloads grow the domain one key at a time. A from-scratch zeta
  // recompute per grow() would make this loop O(n^2) over ~1.1e10 pow()
  // calls — it visibly hangs instead of finishing in milliseconds — while
  // still landing on the same constants, so the pmf check alone would not
  // catch the regression.
  ZipfianKeys d(1, 0.99);
  for (std::uint64_t n = 2; n <= 150'000; ++n) d.grow(n);
  EXPECT_EQ(d.item_count(), 150'000u);
  const ZipfianKeys fresh(150'000, 0.99);
  EXPECT_DOUBLE_EQ(d.pmf(0), fresh.pmf(0));
  EXPECT_DOUBLE_EQ(d.pmf(149'999), fresh.pmf(149'999));
}

TEST(ScrambledZipfian, SpreadsHotKeys) {
  Rng rng(11);
  ScrambledZipfianKeys d(10000);
  // The two hottest scrambled keys should NOT be adjacent small indices.
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) ++counts[d.next(rng)];
  std::uint64_t hottest = 0;
  int hottest_count = 0;
  for (const auto& [k, c] : counts) {
    if (c > hottest_count) {
      hottest = k;
      hottest_count = c;
    }
  }
  EXPECT_NE(hottest, 0u);  // rank 0 maps away from index 0 with high prob.
}

TEST(KeyDistributionSpec, BuildsEveryKind) {
  Rng rng(19);
  for (auto kind : {KeyDistributionKind::kUniform, KeyDistributionKind::kZipfian,
                    KeyDistributionKind::kScrambledZipfian}) {
    KeyDistributionSpec spec;
    spec.kind = kind;
    auto d = spec.build(1000);
    ASSERT_NE(d, nullptr) << static_cast<int>(kind);
    EXPECT_EQ(d->item_count(), 1000u);
    for (int i = 0; i < 100; ++i) ASSERT_LT(d->next(rng), 1000u);
    // clone preserves behaviour class
    auto c = d->clone();
    EXPECT_EQ(c->name(), d->name());
  }
}

TEST(Mix64, BijectiveOnSamples) {
  std::set<std::uint64_t> outputs;
  for (std::uint64_t i = 0; i < 10000; ++i) outputs.insert(mix64(i));
  EXPECT_EQ(outputs.size(), 10000u);
}

}  // namespace
}  // namespace harmony
