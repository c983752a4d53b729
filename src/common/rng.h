// Deterministic random-number generation.
//
// Every simulated entity (client, node, latency link, workload generator) owns
// its own Rng forked from a master seed, so adding an entity or reordering
// event processing never perturbs another entity's stream. The generator is
// xoshiro256** (public domain, Blackman & Vigna) seeded through SplitMix64,
// which is also used directly for stream forking.
#pragma once

#include <array>
#include <cstdint>

namespace harmony {

/// SplitMix64 finalizer: full-avalanche mixing of one 64-bit value. Also the
/// hash for the open-addressing tables (ReplicaStore, StalenessOracle),
/// whose keys are often dense small integers.
constexpr std::uint64_t hash64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// SplitMix64 step: the standard seeding/forking mixer.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// xoshiro256** generator with convenience distributions.
///
/// Not thread-safe; fork() independent streams instead of sharing.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x853C49E6748FEA9BULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& s : state_) s = splitmix64(sm);
  }

  /// Derive an independent substream; deterministic in (this stream, salt).
  Rng fork(std::uint64_t salt) {
    std::uint64_t mix = next() ^ (salt * 0x9E3779B97F4A7C15ULL);
    return Rng{splitmix64(mix)};
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // UniformRandomBitGenerator interface (usable with <random> adaptors).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next(); }

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0. Uses Lemire's method.
  std::uint64_t uniform_u64(std::uint64_t n);

  /// Bernoulli trial.
  bool chance(double p) { return uniform() < p; }

  /// Exponential with given mean (= 1/rate). mean <= 0 returns 0.
  double exponential(double mean);

  /// Standard normal via Box-Muller (no cached spare: keeps forking exact).
  double normal();
  double normal(double mu, double sigma) { return mu + sigma * normal(); }

  /// Lognormal such that the *median* is `median` and sigma is the log-space
  /// standard deviation — the natural way to express latency jitter —
  /// truncated toward zero, as every latency draw uses it. Bit for bit
  /// `int64(median * exp(sigma * normal()))` from the same two uniforms,
  /// computed without libm on all but a fraction of a percent of draws.
  std::int64_t lognormal_median(double median, double sigma);

  /// Sample an index from non-negative weights (linear scan; small arrays).
  std::size_t weighted_index(const double* weights, std::size_t n);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace harmony
