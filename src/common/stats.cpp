#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace harmony {

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::cv() const {
  const double m = mean();
  return m != 0.0 ? stddev() / m : 0.0;
}

WindowedRate::WindowedRate(SimDuration window, int buckets)
    : window_(window), bucket_width_(window / buckets) {
  HARMONY_CHECK(window > 0);
  HARMONY_CHECK(buckets > 0);
  if (bucket_width_ <= 0) bucket_width_ = 1;
}

void WindowedRate::evict(SimTime now) const {
  const SimTime horizon = now - window_;
  while (!buckets_.empty() && buckets_.front().start + bucket_width_ <= horizon) {
    buckets_.pop_front();
  }
}

void WindowedRate::record(SimTime now, std::uint64_t count) {
  evict(now);
  const SimTime bucket_start = now - (now % bucket_width_);
  if (buckets_.empty() || buckets_.back().start != bucket_start) {
    buckets_.push_back({bucket_start, 0});
  }
  buckets_.back().count += count;
  total_ += count;
}

double WindowedRate::rate(SimTime now) const {
  evict(now);
  if (buckets_.empty()) return 0.0;
  std::uint64_t events = 0;
  for (const auto& b : buckets_) events += b.count;
  // Use the actually covered span: early in a run the window is not yet full
  // and dividing by the full window would under-report the rate.
  const SimTime oldest = buckets_.front().start;
  SimDuration span = std::min<SimDuration>(window_, now - oldest);
  if (span < bucket_width_) span = bucket_width_;
  return static_cast<double>(events) / to_seconds(span);
}

void Ewma::observe(SimTime now, double x) {
  if (!initialized_) {
    value_ = x;
    last_ = now;
    initialized_ = true;
    return;
  }
  const SimDuration dt = now - last_;
  last_ = now;
  if (dt <= 0) {
    // Same-instant observations average with full weight on the newer value's
    // half-share to stay order-insensitive enough for simulation use.
    value_ = 0.5 * (value_ + x);
    return;
  }
  const double decay =
      std::exp2(-static_cast<double>(dt) / static_cast<double>(half_life_));
  value_ = decay * value_ + (1.0 - decay) * x;
}

double shannon_entropy(const std::vector<std::uint64_t>& counts) {
  std::uint64_t total = 0;
  for (auto c : counts) total += c;
  if (total == 0) return 0.0;
  double h = 0.0;
  for (auto c : counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / static_cast<double>(total);
    h -= p * std::log2(p);
  }
  return h;
}

}  // namespace harmony
