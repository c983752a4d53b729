// Online statistics: Welford accumulators, windowed event-rate estimation and
// EWMA smoothing. These are the primitives the monitoring module feeds to
// Harmony/Bismar, so they are deliberately simple and allocation-light.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/time_types.h"

namespace harmony {

/// Welford's numerically stable running mean/variance.
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
  }
  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const;
  /// Coefficient of variation (stddev/mean); 0 when mean is 0.
  double cv() const;
  void reset() { n_ = 0; mean_ = 0; m2_ = 0; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0, m2_ = 0;
};

/// Event-rate estimator over a sliding window of fixed duration, bucketed so
/// memory stays bounded no matter the event rate. rate() returns events/sec
/// over (up to) the last `window` of simulated time.
class WindowedRate {
 public:
  explicit WindowedRate(SimDuration window = 10 * kSecond, int buckets = 20);

  void record(SimTime now, std::uint64_t count = 1);
  /// Events per second over the window ending at `now`.
  double rate(SimTime now) const;
  std::uint64_t total() const { return total_; }
  SimDuration window() const { return window_; }

 private:
  struct Bucket {
    SimTime start;
    std::uint64_t count;
  };
  SimDuration window_;
  SimDuration bucket_width_;
  mutable std::deque<Bucket> buckets_;
  std::uint64_t total_ = 0;

  void evict(SimTime now) const;
};

/// Exponentially weighted moving average with a half-life expressed in
/// simulated time, so irregular sampling intervals are weighted correctly.
class Ewma {
 public:
  explicit Ewma(SimDuration half_life) : half_life_(half_life) {}
  void observe(SimTime now, double x);
  double value() const { return value_; }
  bool empty() const { return !initialized_; }
  void reset() { initialized_ = false; value_ = 0; }

 private:
  SimDuration half_life_;
  SimTime last_ = 0;
  double value_ = 0;
  bool initialized_ = false;
};

/// Shannon entropy (bits) of a discrete frequency table; used as the key-skew
/// feature in application behavior modeling.
double shannon_entropy(const std::vector<std::uint64_t>& counts);

}  // namespace harmony
