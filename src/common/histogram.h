// Log-linear latency histogram (HdrHistogram-style).
//
// Values are bucketed with ~3% relative precision over [1us, ~1.2e7us], which
// is ample for operation latencies; recording is two shifts and an increment,
// so every simulated operation can afford one. record()/record_n() are
// defined inline here: every simulated operation calls them from another
// translation unit, and the sentinel min/max initialisation keeps the hot
// path free of empty-histogram branches (two unconditional min/max updates
// instead).
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/time_types.h"

namespace harmony {

class LatencyHistogram {
 public:
  LatencyHistogram();

  void record(SimDuration value) { record_n(value, 1); }

  void record_n(SimDuration value, std::uint64_t n) {
    if (n == 0) return;
    if (value < 0) value = 0;  // durations cannot be negative; clamp
    buckets_[bucket_index(value)] += n;
    min_ = value < min_ ? value : min_;
    max_ = value > max_ ? value : max_;
    count_ += n;
    sum_ += static_cast<double>(value) * static_cast<double>(n);
  }

  std::uint64_t count() const { return count_; }
  double mean() const;
  SimDuration min() const { return count_ ? min_ : 0; }
  SimDuration max() const { return count_ ? max_ : 0; }

  /// p in [0,100]; returns the upper bound of the bucket containing the
  /// p-th percentile observation, clamped to [min(), max()] so p=0 yields
  /// min() and p=100 yields max() exactly (0 when empty).
  SimDuration percentile(double p) const;
  SimDuration median() const { return percentile(50.0); }
  SimDuration p95() const { return percentile(95.0); }
  SimDuration p99() const { return percentile(99.0); }

  void merge(const LatencyHistogram& other);

  /// "mean=1.2ms p50=0.9ms p95=3.0ms p99=6.1ms max=9ms n=1234"
  std::string summary() const;

 private:
  static constexpr int kSubBucketBits = 5;  // 32 sub-buckets per octave
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  static constexpr int kOctaves = 40;
  /// Sentinels make the empty-histogram case fall out of the unconditional
  /// min/max updates in record_n (accessors already guard on count_).
  static constexpr SimDuration kMinSentinel =
      std::numeric_limits<SimDuration>::max();

  static std::size_t bucket_index(SimDuration v) {
    const auto u = static_cast<std::uint64_t>(v);
    if (u < kSubBuckets) return static_cast<std::size_t>(u);
    // Octave = position of the highest set bit above the sub-bucket range;
    // within an octave, the next kSubBucketBits bits select the sub-bucket.
    const int high = 63 - std::countl_zero(u);
    const int octave = high - kSubBucketBits + 1;
    const auto sub = static_cast<std::size_t>(
        (u >> (high - kSubBucketBits)) & (kSubBuckets - 1));
    std::size_t idx = static_cast<std::size_t>(octave) * kSubBuckets + sub;
    const std::size_t last =
        static_cast<std::size_t>(kOctaves) * kSubBuckets - 1;
    return idx > last ? last : idx;
  }
  static SimDuration bucket_upper_bound(std::size_t index);

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
  SimDuration min_ = kMinSentinel, max_ = 0;
};

}  // namespace harmony
