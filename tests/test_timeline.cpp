#include "ml/timeline.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"

namespace harmony::ml {
namespace {

std::vector<AccessRecord> steady_stream(double ops_per_s, double write_share,
                                        SimDuration span, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<AccessRecord> out;
  const double gap = 1e6 / ops_per_s;
  SimTime t = 0;
  while (t < span) {
    t += static_cast<SimTime>(rng.exponential(gap)) + 1;
    AccessRecord r;
    r.time = t;
    r.is_write = rng.chance(write_share);
    r.key = rng.uniform_u64(10000);
    r.value_size = 1024;
    out.push_back(r);
  }
  return out;
}

TEST(Timeline, WindowCountMatchesSpan) {
  const auto records = steady_stream(500, 0.3, 60 * kSecond, 1);
  TimelineOptions opt;
  opt.window = 10 * kSecond;
  const auto t = build_timeline(records, opt);
  EXPECT_NEAR(static_cast<double>(t.windows.size()), 6.0, 1.0);
  for (const auto& w : t.windows) {
    EXPECT_EQ(w.features.size(), kTimelineFeatureCount);
  }
}

TEST(Timeline, RatesAndShares) {
  const auto records = steady_stream(1000, 0.4, 50 * kSecond, 2);
  TimelineOptions opt;
  opt.window = 10 * kSecond;
  const auto t = build_timeline(records, opt);
  ASSERT_GE(t.windows.size(), 4u);
  for (const auto& w : t.windows) {
    EXPECT_NEAR(w.features[0] + w.features[1], 1000.0, 150.0);  // total rate
    EXPECT_NEAR(w.features[2], 0.4, 0.08);                      // write share
    EXPECT_NEAR(w.features[5], 1024.0, 1e-9);                   // value size
  }
}

TEST(Timeline, EntropyReflectsKeySkew) {
  Rng rng(3);
  std::vector<AccessRecord> hot, uniform;
  for (int i = 0; i < 5000; ++i) {
    AccessRecord r;
    r.time = i * 1000;
    r.key = i % 2;  // two keys only
    hot.push_back(r);
    r.key = rng.uniform_u64(1000000);
    uniform.push_back(r);
  }
  TimelineOptions opt;
  opt.window = 5 * kSecond;
  const auto th = build_timeline(hot, opt);
  const auto tu = build_timeline(uniform, opt);
  ASSERT_FALSE(th.windows.empty());
  ASSERT_FALSE(tu.windows.empty());
  EXPECT_LT(th.windows[0].features[3], 1.5);
  EXPECT_GT(tu.windows[0].features[3], 6.0);
}

TEST(Timeline, BurstinessOfPoissonNearOne) {
  const auto records = steady_stream(2000, 0.5, 20 * kSecond, 4);
  TimelineOptions opt;
  opt.window = 10 * kSecond;
  const auto t = build_timeline(records, opt);
  ASSERT_FALSE(t.windows.empty());
  EXPECT_NEAR(t.windows[0].features[4], 1.0, 0.25);
}

TEST(Timeline, SparseWindowsDropped) {
  std::vector<AccessRecord> records;
  // 3 ops in the first window, 100 in the second.
  for (int i = 0; i < 3; ++i) records.push_back({i * 100, false, 0, 10});
  for (int i = 0; i < 100; ++i) {
    records.push_back({10 * kSecond + i * 1000, false, 0, 10});
  }
  TimelineOptions opt;
  opt.window = 10 * kSecond;
  const auto t = build_timeline(records, opt);
  ASSERT_EQ(t.windows.size(), 1u);
  EXPECT_EQ(t.windows[0].ops, 100u);
}

TEST(Timeline, GapsInStreamSkipEmptyWindows) {
  std::vector<AccessRecord> records;
  for (int i = 0; i < 50; ++i) records.push_back({i * 1000, false, 0, 10});
  for (int i = 0; i < 50; ++i) {
    records.push_back({10 * kMinute + i * 1000, true, 1, 10});
  }
  TimelineOptions opt;
  opt.window = 10 * kSecond;
  const auto t = build_timeline(records, opt);
  EXPECT_EQ(t.windows.size(), 2u);
  EXPECT_LT(t.windows[0].features[2], 0.01);
  EXPECT_GT(t.windows[1].features[2], 0.99);
}

TEST(Timeline, UnsortedRecordsThrow) {
  std::vector<AccessRecord> records = {{1000, false, 0, 1}, {500, false, 0, 1}};
  EXPECT_THROW(build_timeline(records, {}), CheckError);
}

TEST(Timeline, MatrixShape) {
  const auto records = steady_stream(500, 0.2, 30 * kSecond, 5);
  const auto t = build_timeline(records, {});
  const auto m = t.matrix();
  EXPECT_EQ(m.size(), t.windows.size());
}

}  // namespace
}  // namespace harmony::ml
