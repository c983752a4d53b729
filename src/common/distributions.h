// YCSB-compatible request-key distributions.
//
// The paper drives Cassandra with the Yahoo! Cloud Serving Benchmark; staleness
// under eventual consistency is dominated by how strongly requests concentrate
// on hot keys, so the zipfian family is reproduced with YCSB's exact zeta-based
// rejection-free algorithm (Gray et al., "Quickly generating billion-record
// synthetic databases").
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.h"

namespace harmony {

/// 64-bit finalizer used to scatter zipfian ranks over the key space
/// (YCSB's FNV-hash role). Stateless and collision-free over 2^64.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

/// A distribution over the key indices [0, n). Implementations are cheap to
/// copy via clone(); grow() extends the domain as inserts add keys.
class KeyDistribution {
 public:
  virtual ~KeyDistribution() = default;
  /// Draw a key index in [0, item_count()).
  virtual std::uint64_t next(Rng& rng) = 0;
  virtual std::uint64_t item_count() const = 0;
  /// Grow the domain (used by insert-heavy workloads).
  virtual void grow(std::uint64_t new_count) = 0;
  virtual std::string name() const = 0;
  virtual std::unique_ptr<KeyDistribution> clone() const = 0;
};

/// Uniform over [0, n).
class UniformKeys final : public KeyDistribution {
 public:
  explicit UniformKeys(std::uint64_t n);
  std::uint64_t next(Rng& rng) override;
  std::uint64_t item_count() const override { return n_; }
  void grow(std::uint64_t new_count) override;
  std::string name() const override { return "uniform"; }
  std::unique_ptr<KeyDistribution> clone() const override;

 private:
  std::uint64_t n_;
};

/// Zipfian over ranks [0, n) with YCSB's incremental-zeta algorithm.
/// theta defaults to YCSB's 0.99. Rank 0 is the hottest item.
class ZipfianKeys : public KeyDistribution {
 public:
  static constexpr double kDefaultTheta = 0.99;
  explicit ZipfianKeys(std::uint64_t n, double theta = kDefaultTheta);
  std::uint64_t next(Rng& rng) override;
  std::uint64_t item_count() const override { return n_; }
  void grow(std::uint64_t new_count) override;
  std::string name() const override { return "zipfian"; }
  std::unique_ptr<KeyDistribution> clone() const override;

  double theta() const { return theta_; }
  /// zeta(item_count(), theta), the normalizer of pmf().
  double zeta_n() const { return zeta_n_; }
  /// Probability mass of rank r (for tests): p(r) = (1/(r+1)^theta)/zeta_n.
  double pmf(std::uint64_t rank) const;

  /// `initial` plus the terms 1/(i+1)^theta for i in [from, to), added in
  /// index order. With threads > 1 the terms are computed on the calling
  /// thread and a ThreadPool of up to threads - 1 workers, and added on the
  /// calling thread, so the result is the same double at any thread count.
  /// Construction and grow() pass
  /// setup_threads() of the term count (common/threads.h).
  static double zeta(std::uint64_t from, std::uint64_t to, double theta,
                     double initial, unsigned threads);

 protected:
  std::uint64_t next_rank(Rng& rng);

 private:
  void recompute(std::uint64_t n);

  std::uint64_t n_;
  double theta_;
  double zeta_n_;
  double alpha_, eta_, zeta2theta_;
  /// next_rank's cut on u * zeta_n for rank 1: 1 + 0.5^theta. Not
  /// zeta2theta_, which is 1 + 1/2^theta, a different double.
  double rank1_bound_;
};

/// Zipfian with ranks scattered across the whole key space by a bijective
/// mix — hot items are spread out instead of clustered at low indices
/// (YCSB's ScrambledZipfianGenerator).
class ScrambledZipfianKeys final : public ZipfianKeys {
 public:
  explicit ScrambledZipfianKeys(std::uint64_t n, double theta = kDefaultTheta)
      : ZipfianKeys(n, theta) {}
  /// The scrambled twin of `ranks`: its zeta constants copied, not re-summed.
  /// grow() extends them bit for bit as a fresh construction would sum them.
  explicit ScrambledZipfianKeys(const ZipfianKeys& ranks)
      : ZipfianKeys(ranks) {}
  std::uint64_t next(Rng& rng) override {
    // Offset before mixing: mix64(0) == 0 would pin the hottest rank to
    // index 0, defeating the scramble.
    return mix64(next_rank(rng) + 0x9E3779B97F4A7C15ULL) % item_count();
  }
  std::string name() const override { return "scrambled_zipfian"; }
  std::unique_ptr<KeyDistribution> clone() const override {
    return std::make_unique<ScrambledZipfianKeys>(*this);
  }
};

/// Kind + factory so workload specs can be declarative and copyable.
enum class KeyDistributionKind : std::uint8_t {
  kUniform,
  kZipfian,
  kScrambledZipfian,
};

/// The zipfian kinds use YCSB's theta, ZipfianKeys::kDefaultTheta.
struct KeyDistributionSpec {
  KeyDistributionKind kind = KeyDistributionKind::kScrambledZipfian;

  std::unique_ptr<KeyDistribution> build(std::uint64_t item_count) const;
};

}  // namespace harmony
