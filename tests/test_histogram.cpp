#include "common/histogram.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"

namespace harmony {
namespace {

TEST(Histogram, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(50), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(Histogram, SingleValue) {
  LatencyHistogram h;
  h.record(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.mean(), 1000.0);
  EXPECT_EQ(h.min(), 1000);
  EXPECT_EQ(h.max(), 1000);
  // Percentile is bucket-resolution-bounded.
  EXPECT_NEAR(static_cast<double>(h.percentile(50)), 1000.0, 1000.0 * 0.04);
}

TEST(Histogram, ExactForSmallValues) {
  // Values below the sub-bucket count are exact.
  LatencyHistogram h;
  for (SimDuration v = 0; v < 32; ++v) h.record(v);
  EXPECT_EQ(h.percentile(100), 31);
  EXPECT_EQ(h.min(), 0);
}

// Relative error of percentiles is bounded by the sub-bucket resolution
// across magnitudes.
class HistogramPrecision : public ::testing::TestWithParam<SimDuration> {};

TEST_P(HistogramPrecision, RelativeErrorBounded) {
  const SimDuration magnitude = GetParam();
  LatencyHistogram h;
  h.record(magnitude);
  const auto p = h.percentile(50);
  EXPECT_GE(p, magnitude * 97 / 100);
  EXPECT_LE(p, magnitude);  // clamped to max
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, HistogramPrecision,
                         ::testing::Values(100, 1'000, 10'000, 250'000,
                                           1'000'000, 60'000'000));

TEST(Histogram, PercentileOrdering) {
  LatencyHistogram h;
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    h.record(rng.lognormal_median(2000, 0.6));
  }
  EXPECT_LE(h.percentile(10), h.percentile(50));
  EXPECT_LE(h.percentile(50), h.percentile(95));
  EXPECT_LE(h.percentile(95), h.percentile(99));
  EXPECT_LE(h.percentile(99), h.max());
}

TEST(Histogram, MedianOfUniformStream) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.record(i * 100);
  const auto p50 = h.percentile(50);
  EXPECT_NEAR(static_cast<double>(p50), 50000.0, 50000.0 * 0.05);
}

TEST(Histogram, MergeEqualsCombinedStream) {
  LatencyHistogram a, b, combined;
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const auto v = static_cast<SimDuration>(rng.exponential(3000));
    if (i % 2 == 0) {
      a.record(v);
    } else {
      b.record(v);
    }
    combined.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_DOUBLE_EQ(a.mean(), combined.mean());
  EXPECT_EQ(a.percentile(95), combined.percentile(95));
  EXPECT_EQ(a.max(), combined.max());
  EXPECT_EQ(a.min(), combined.min());
}

TEST(Histogram, MergeIntoEmpty) {
  LatencyHistogram a, b;
  b.record(500);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 500);
}

TEST(Histogram, RecordNWeights) {
  LatencyHistogram h;
  h.record_n(100, 9);
  h.record_n(100000, 1);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_LE(h.percentile(80), 110);
  EXPECT_GT(h.percentile(99), 90000);
}

TEST(Histogram, NegativeClampsToZeroBucket) {
  LatencyHistogram h;
  h.record(-5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.percentile(100), 0);
}

TEST(Histogram, PercentileZeroIsExactMin) {
  // Regression: percentile(0) used to return the first non-empty bucket's
  // *upper bound*, which overshoots min() once values leave the exact range.
  LatencyHistogram h;
  h.record(1000);    // bucketed: bucket upper bound is 1023, not 1000
  h.record(999983);
  EXPECT_EQ(h.percentile(0), 1000);
  EXPECT_EQ(h.percentile(0), h.min());
}

TEST(Histogram, PercentileHundredIsExactMax) {
  LatencyHistogram h;
  h.record(1000);
  h.record(999983);
  EXPECT_EQ(h.percentile(100), 999983);
  EXPECT_EQ(h.percentile(100), h.max());
}

TEST(Histogram, SingleObservationAllPercentiles) {
  LatencyHistogram h;
  h.record(123456);
  for (const double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(h.percentile(p), 123456) << "p=" << p;
  }
}

TEST(Histogram, LowPercentileNeverBelowMin) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.record(50000 + i * 7);
  EXPECT_GE(h.percentile(1), h.min());
  EXPECT_EQ(h.percentile(0), h.min());
  EXPECT_LE(h.percentile(1), h.percentile(50));
}

TEST(Histogram, PercentileArgValidation) {
  LatencyHistogram h;
  h.record(10);
  EXPECT_THROW(h.percentile(-1), CheckError);
  EXPECT_THROW(h.percentile(101), CheckError);
}

TEST(Histogram, SummaryMentionsCount) {
  LatencyHistogram h;
  h.record(msec(2));
  EXPECT_NE(h.summary().find("n=1"), std::string::npos);
}

}  // namespace
}  // namespace harmony
