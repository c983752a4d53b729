#include "common/histogram.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"

namespace harmony {

LatencyHistogram::LatencyHistogram()
    : buckets_(static_cast<std::size_t>(kOctaves) * kSubBuckets, 0) {}

SimDuration LatencyHistogram::bucket_upper_bound(std::size_t index) {
  if (index < kSubBuckets) return static_cast<SimDuration>(index);
  const std::size_t octave = index / kSubBuckets;
  const std::size_t sub = index % kSubBuckets;
  // Inverse of bucket_index: reconstruct the largest value mapping here.
  const int high = static_cast<int>(octave) + kSubBucketBits - 1;
  const std::uint64_t base = (1ULL << kSubBucketBits) | sub;
  const std::uint64_t lo = base << (high - kSubBucketBits);
  const std::uint64_t width = 1ULL << (high - kSubBucketBits);
  return static_cast<SimDuration>(lo + width - 1);
}

double LatencyHistogram::mean() const {
  return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

SimDuration LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0;
  HARMONY_CHECK(p >= 0 && p <= 100);
  const double target_f = p / 100.0 * static_cast<double>(count_);
  auto target = static_cast<std::uint64_t>(target_f);
  if (target < target_f) ++target;
  if (target == 0) target = 1;
  // The target-th observation for target==1 is the minimum itself (covers
  // p=0, low percentiles of small samples, and single-observation
  // histograms), which is tracked exactly — no bucket rounding needed.
  if (target == 1) return min_;
  std::uint64_t running = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    running += buckets_[i];
    if (running >= target) {
      return std::min(bucket_upper_bound(i), max_);
    }
  }
  return max_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  HARMONY_CHECK(buckets_.size() == other.buckets_.size());
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  // The sentinels absorb the we-were-empty case without a branch on count_.
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
}

std::string LatencyHistogram::summary() const {
  char buf[160];
  std::snprintf(buf, sizeof buf, "mean=%s p50=%s p95=%s p99=%s max=%s n=%llu",
                format_duration(static_cast<SimDuration>(mean())).c_str(),
                format_duration(median()).c_str(),
                format_duration(p95()).c_str(),
                format_duration(p99()).c_str(),
                format_duration(max()).c_str(),
                static_cast<unsigned long long>(count_));
  return buf;
}

}  // namespace harmony
