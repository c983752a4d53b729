// Reference twin of Rng::lognormal_median for the differential harness and
// bench_micro: the latency draw as the plain libm formula — a Box-Muller
// normal z from two uniforms, median * exp(sigma * z), truncated toward
// zero. Same uniforms, same expression order, so its integer is the one the
// production draw must return at every stream position.
#pragma once

#include <cmath>
#include <cstdint>

#include "common/rng.h"

namespace harmony::testing {

/// exp(sigma * z) for the z of the stream's next two uniforms.
inline double reference_lognormal_factor(Rng& rng, double sigma) {
  double u1 = rng.uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = rng.uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double z = r * std::cos(2.0 * M_PI * u2);
  return std::exp(sigma * z);
}

/// The untruncated draw. Past 2^63 its truncation is undefined, in the
/// formula as in production; callers skip such positions.
inline double reference_lognormal_value(Rng& rng, double median,
                                        double sigma) {
  return median * reference_lognormal_factor(rng, sigma);
}

inline std::int64_t reference_lognormal_median(Rng& rng, double median,
                                               double sigma) {
  return static_cast<std::int64_t>(
      reference_lognormal_value(rng, median, sigma));
}

}  // namespace harmony::testing
