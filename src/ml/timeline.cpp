#include "ml/timeline.h"

#include "common/check.h"
#include "common/distributions.h"
#include "common/stats.h"

namespace harmony::ml {

namespace {

/// Windows with fewer ops than this are dropped.
constexpr std::size_t kMinOpsPerWindow = 5;
/// Entropy is computed over key hash buckets to stay O(1) per record.
constexpr std::size_t kEntropyBuckets = 256;

FeatureVector window_features(const std::vector<AccessRecord>& records,
                              SimDuration window_length) {
  FeatureVector f(kTimelineFeatureCount, 0.0);
  if (records.empty()) return f;

  const double span_s = to_seconds(window_length);
  std::uint64_t reads = 0, writes = 0;
  double size_sum = 0;
  std::vector<std::uint64_t> buckets(kEntropyBuckets, 0);
  RunningStats gaps;
  SimTime prev = records.front().time;
  for (const auto& r : records) {
    if (r.is_write) {
      ++writes;
    } else {
      ++reads;
    }
    size_sum += r.value_size;
    ++buckets[harmony::mix64(r.key) % kEntropyBuckets];
    if (r.time > prev) {
      gaps.add(static_cast<double>(r.time - prev));
      prev = r.time;
    }
  }
  const double ops = static_cast<double>(reads + writes);
  f[0] = static_cast<double>(reads) / span_s;
  f[1] = static_cast<double>(writes) / span_s;
  f[2] = ops > 0 ? static_cast<double>(writes) / ops : 0.0;
  f[3] = shannon_entropy(buckets);
  f[4] = gaps.cv();
  f[5] = ops > 0 ? size_sum / ops : 0.0;
  return f;
}

}  // namespace

Timeline build_timeline(const std::vector<AccessRecord>& records,
                        const TimelineOptions& opt) {
  HARMONY_CHECK(opt.window > 0);
  Timeline timeline;
  if (records.empty()) return timeline;

  std::vector<AccessRecord> bucket;
  SimTime window_start =
      records.front().time - (records.front().time % opt.window);
  auto flush = [&] {
    if (bucket.size() >= kMinOpsPerWindow) {
      TimelineWindow w;
      w.start = window_start;
      w.length = opt.window;
      w.ops = bucket.size();
      w.features = window_features(bucket, opt.window);
      timeline.windows.push_back(std::move(w));
    }
    bucket.clear();
  };

  SimTime prev_time = records.front().time;
  for (const auto& r : records) {
    HARMONY_CHECK_MSG(r.time >= prev_time, "records must be time-sorted");
    prev_time = r.time;
    while (r.time >= window_start + opt.window) {
      flush();
      window_start += opt.window;
    }
    bucket.push_back(r);
  }
  flush();
  return timeline;
}

FeatureMatrix Timeline::matrix() const {
  FeatureMatrix m;
  m.reserve(windows.size());
  for (const auto& w : windows) m.push_back(w.features);
  return m;
}

}  // namespace harmony::ml
