#include "common/distributions.h"

#include <cmath>

#include "common/check.h"

namespace harmony {

// ---------------------------------------------------------------- Uniform

UniformKeys::UniformKeys(std::uint64_t n) : n_(n) { HARMONY_CHECK(n > 0); }

std::uint64_t UniformKeys::next(Rng& rng) { return rng.uniform_u64(n_); }

void UniformKeys::grow(std::uint64_t new_count) {
  HARMONY_CHECK(new_count >= n_);
  n_ = new_count;
}

std::unique_ptr<KeyDistribution> UniformKeys::clone() const {
  return std::make_unique<UniformKeys>(*this);
}

// ---------------------------------------------------------------- Zipfian

double ZipfianKeys::zeta(std::uint64_t from, std::uint64_t to, double theta,
                         double initial) {
  // zeta(n) = sum_{i=1..n} 1/i^theta, computed incrementally from `from`.
  double z = initial;
  for (std::uint64_t i = from; i < to; ++i) {
    z += 1.0 / std::pow(static_cast<double>(i) + 1.0, theta);
  }
  return z;
}

ZipfianKeys::ZipfianKeys(std::uint64_t n, double theta)
    : n_(0), theta_(theta), zeta_n_(0), alpha_(0), eta_(0), zeta2theta_(0) {
  HARMONY_CHECK(n > 0);
  HARMONY_CHECK_MSG(theta > 0 && theta < 1,
                    "YCSB zipfian requires theta in (0,1)");
  zeta2theta_ = zeta(0, 2, theta_, 0.0);
  alpha_ = 1.0 / (1.0 - theta_);
  recompute(n);
}

void ZipfianKeys::recompute(std::uint64_t n) {
  // Incremental: extend the harmonic sum from the old n_ (YCSB's
  // incremental-zeta trick). Insert workloads call grow() once per inserted
  // key, so a from-scratch re-sum here would be O(n) per insert — O(n^2)
  // per run. The left-to-right extension adds the exact terms a fresh
  // construction would, so the constants stay bit-identical to the
  // from-scratch path (pinned by ZipfianKeys.IncrementalGrowMatchesFromScratch).
  zeta_n_ = zeta(n_, n, theta_, zeta_n_);
  n_ = n;
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
         (1.0 - zeta2theta_ / zeta_n_);
}

std::uint64_t ZipfianKeys::next_rank(Rng& rng) {
  // Gray et al. closed-form inverse; identical to YCSB's ZipfianGenerator.
  const double u = rng.uniform();
  const double uz = u * zeta_n_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const auto rank = static_cast<std::uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return rank >= n_ ? n_ - 1 : rank;
}

std::uint64_t ZipfianKeys::next(Rng& rng) { return next_rank(rng); }

void ZipfianKeys::grow(std::uint64_t new_count) {
  HARMONY_CHECK(new_count >= n_);
  if (new_count != n_) recompute(new_count);
}

double ZipfianKeys::pmf(std::uint64_t rank) const {
  HARMONY_CHECK(rank < n_);
  return (1.0 / std::pow(static_cast<double>(rank) + 1.0, theta_)) / zeta_n_;
}

std::unique_ptr<KeyDistribution> ZipfianKeys::clone() const {
  return std::make_unique<ZipfianKeys>(*this);
}

// ---------------------------------------------------------------- Spec

std::unique_ptr<KeyDistribution> KeyDistributionSpec::build(
    std::uint64_t item_count) const {
  switch (kind) {
    case KeyDistributionKind::kUniform:
      return std::make_unique<UniformKeys>(item_count);
    case KeyDistributionKind::kZipfian:
      return std::make_unique<ZipfianKeys>(item_count, zipf_theta);
    case KeyDistributionKind::kScrambledZipfian:
      return std::make_unique<ScrambledZipfianKeys>(item_count, zipf_theta);
  }
  HARMONY_CHECK_MSG(false, "unreachable: bad KeyDistributionKind");
  return nullptr;
}

}  // namespace harmony
