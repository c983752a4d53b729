// Timeline building: "several predefined metrics are collected based on
// application data access past traces. These metrics are collected per time
// period in order to build the application timeline" (§III-C).
//
// The input is a neutral access-record stream (the core module adapts
// workload traces to it), the output one feature vector per fixed-size time
// window. Feature set (the "predefined metrics"):
//   0 read rate (ops/s)          3 key-access entropy (bits, skew proxy)
//   1 write rate (ops/s)         4 burstiness (CV of inter-arrival times)
//   2 write share (writes/ops)   5 mean value size (bytes)
#pragma once

#include <cstdint>
#include <vector>

#include "common/time_types.h"
#include "ml/features.h"

namespace harmony::ml {

struct AccessRecord {
  SimTime time = 0;
  bool is_write = false;
  std::uint64_t key = 0;
  std::uint32_t value_size = 0;
};

inline constexpr std::size_t kTimelineFeatureCount = 6;

struct TimelineWindow {
  SimTime start = 0;
  SimDuration length = 0;
  std::size_t ops = 0;
  FeatureVector features;  ///< size kTimelineFeatureCount
};

struct Timeline {
  std::vector<TimelineWindow> windows;

  FeatureMatrix matrix() const;
};

struct TimelineOptions {
  SimDuration window = 10 * kSecond;
};

/// Slice the record stream (must be time-sorted) into windows and compute the
/// metric vector of each. Windows with fewer than 5 ops are dropped (idle
/// periods would otherwise produce all-zero noise states).
Timeline build_timeline(const std::vector<AccessRecord>& records,
                        const TimelineOptions& options);

}  // namespace harmony::ml
