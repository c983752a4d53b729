// ZipfianKeys::zeta on set-up threads: from kParallelSetupMin terms up the
// terms are computed on worker threads and added on the calling one, and the
// sum must be the serial loop's double, bit for bit, at every thread count
// and through grow(). Built into the thread-pool suite, which CI also runs
// under TSan.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/distributions.h"
#include "common/thread_pool.h"
#include "common/threads.h"

namespace harmony {
namespace {

/// The reference: one term per rank, added in index order.
double serial_zeta(std::uint64_t to, double theta) {
  double z = 0;
  for (std::uint64_t i = 0; i < to; ++i) {
    z += 1.0 / std::pow(static_cast<double>(i) + 1.0, theta);
  }
  return z;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

constexpr std::uint64_t kCut = kParallelSetupMin;

TEST(ParallelZeta, EveryThreadCountAddsTheSerialSum) {
  // Below, at and past the cut; 100,003 is a multiple of no power-of-two
  // block size.
  for (const std::uint64_t n : {kCut - 1, kCut, kCut + 1,
                                std::uint64_t{100'003},
                                std::uint64_t{2'000'000}}) {
    const std::uint64_t want = bits(serial_zeta(n, ZipfianKeys::kDefaultTheta));
    for (unsigned threads = 1; threads <= 4; ++threads) {
      EXPECT_EQ(bits(ZipfianKeys::zeta(0, n, ZipfianKeys::kDefaultTheta, 0.0,
                                       threads)),
                want)
          << "n " << n << ", " << threads << " threads";
    }
    EXPECT_EQ(bits(ZipfianKeys(n).zeta_n()), want) << "n " << n;
  }
  // Another theta, from an offset onto a partial sum, as grow() calls it.
  const double head = serial_zeta(1000, 0.5);
  for (unsigned threads = 1; threads <= 4; ++threads) {
    EXPECT_EQ(bits(ZipfianKeys::zeta(1000, 1000 + 3 * kCut + 17, 0.5, head,
                                     threads)),
              bits(serial_zeta(1000 + 3 * kCut + 17, 0.5)))
        << threads << " threads";
  }
}

TEST(ParallelZeta, GrowAcrossTheCutKeepsTheSerialSum) {
  // grow() sums only the new terms: one thread for fewer than kCut of them,
  // set-up threads from kCut up.
  const double theta = ZipfianKeys::kDefaultTheta;
  ZipfianKeys keys(1000);
  for (const std::uint64_t n : {1000 + kCut - 1, std::uint64_t{300'007},
                                std::uint64_t{300'008}}) {
    keys.grow(n);
    EXPECT_EQ(bits(keys.zeta_n()), bits(serial_zeta(n, theta))) << "n " << n;
    EXPECT_EQ(bits(keys.zeta_n()), bits(ZipfianKeys(n).zeta_n())) << "n " << n;
  }
}

TEST(ParallelZeta, StaysSerialBelowTheCutAndOnPoolWorkers) {
  EXPECT_EQ(setup_threads(kCut - 1), 1u);
  EXPECT_EQ(setup_threads(kCut), usable_cpus());
  // A sweep grid's cells run on a pool's workers, which it already fills.
  ThreadPool pool(1);
  EXPECT_EQ(pool.submit([] { return setup_threads(kCut); }).get(), 1u);
}

}  // namespace
}  // namespace harmony
