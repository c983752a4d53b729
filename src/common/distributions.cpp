#include "common/distributions.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <future>
#include <mutex>
#include <vector>

#include "common/check.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "common/threads.h"

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

namespace {

/// The zeta term of rank i: 1/(i+1)^theta.
double zeta_term(std::uint64_t i, double theta) {
  return 1.0 / std::pow(static_cast<double>(i) + 1.0, theta);
}

/// Terms per block, and blocks in the ring: at most 15 x 8 KiB = 120 KiB
/// in flight whatever the thread count. That stays under glibc's default
/// 128 KiB mmap threshold, so the ring is a plain heap block and freeing it
/// does not raise the threshold for the allocations that follow.
constexpr std::uint64_t kZetaBlockTerms = 1024;
constexpr std::uint64_t kZetaRingBlocks = 15;
/// The adder adds a block ~8x faster than a thread computes one, and a
/// block is claimed only while its ring slot is free: past about half the
/// ring, more threads only wait.
constexpr unsigned kZetaMaxThreads = kZetaRingBlocks / 2;

/// The parallel zeta sum. Threads claim the blocks of [from, to) in index
/// order and fill block b into ring slot b % kZetaRingBlocks. A block is
/// claimed only while fewer than kZetaRingBlocks blocks are claimed and not
/// yet added, so its slot is free. The calling thread, the adder, adds the
/// blocks onto the sum in index order, term by term, which gives the serial
/// loop's double. Every handoff of a slot goes through mutex_: a filler's
/// unlock after marking its block filled releases the terms to the adder's
/// lock, and the adder's unlock after freeing the slot releases its reads
/// to the lock of the filler that claims the slot next.
class ZetaRing {
 public:
  ZetaRing(std::uint64_t from, std::uint64_t to, double theta)
      : from_(from),
        to_(to),
        theta_(theta),
        blocks_((to - from + kZetaBlockTerms - 1) / kZetaBlockTerms),
        terms_(kZetaRingBlocks * kZetaBlockTerms) {}

  ZetaRing(const ZetaRing&) = delete;
  ZetaRing& operator=(const ZetaRing&) = delete;

  /// A pool worker: fill blocks until every block is claimed.
  void fill_blocks() EXCLUDES(mutex_) {
    for (;;) {
      std::uint64_t b = 0;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        // Explicit predicate loop, as in ThreadPool::worker_loop.
        while (next_ < blocks_ && next_ == added_ + kZetaRingBlocks) {
          slot_freed_.wait(lock);
        }
        if (next_ == blocks_) return;
        b = next_++;
      }
      fill(b);
    }
  }

  /// The calling thread: add every block onto `z` in index order. While
  /// the next block is not filled it fills one it claims; it waits only
  /// when no slot is free to claim.
  double add_blocks(double z) EXCLUDES(mutex_) {
    for (std::uint64_t b = 0; b < blocks_; ++b) {
      for (;;) {
        std::uint64_t claimed = 0;
        {
          std::unique_lock<std::mutex> lock(mutex_);
          while (!filled_[b % kZetaRingBlocks] &&
                 (next_ == blocks_ || next_ == added_ + kZetaRingBlocks)) {
            block_filled_.wait(lock);
          }
          if (filled_[b % kZetaRingBlocks]) break;
          claimed = next_++;
        }
        fill(claimed);
      }
      const double* terms = slot(b);
      const std::uint64_t n = block_terms(b);
      for (std::uint64_t j = 0; j < n; ++j) z += terms[j];
      {
        std::lock_guard<std::mutex> lock(mutex_);
        filled_[b % kZetaRingBlocks] = false;
        ++added_;
      }
      slot_freed_.notify_one();
    }
    // Every block is claimed: a worker still waiting for a slot exits.
    slot_freed_.notify_all();
    return z;
  }

 private:
  /// Computes claimed block b into its slot, then marks it filled.
  void fill(std::uint64_t b) EXCLUDES(mutex_) {
    double* terms = slot(b);
    const std::uint64_t first = from_ + b * kZetaBlockTerms;
    const std::uint64_t n = block_terms(b);
    for (std::uint64_t j = 0; j < n; ++j) {
      terms[j] = zeta_term(first + j, theta_);
    }
    bool next_to_add = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      filled_[b % kZetaRingBlocks] = true;
      next_to_add = b == added_;
    }
    // The adder waits only for block added_ (or a free slot, which only
    // its own adds make).
    if (next_to_add) block_filled_.notify_one();
  }

  double* slot(std::uint64_t b) {
    return terms_.data() + (b % kZetaRingBlocks) * kZetaBlockTerms;
  }
  std::uint64_t block_terms(std::uint64_t b) const {
    return std::min(kZetaBlockTerms, to_ - from_ - b * kZetaBlockTerms);
  }

  const std::uint64_t from_;
  const std::uint64_t to_;
  const double theta_;
  const std::uint64_t blocks_;
  /// kZetaRingBlocks slots of kZetaBlockTerms terms. A slot is written only
  /// by the thread that claimed its block and read only by the adder after
  /// it sees the block filled, both with the lock released.
  std::vector<double> terms_;

  std::mutex mutex_;
  std::condition_variable block_filled_;
  std::condition_variable slot_freed_;
  std::uint64_t next_ GUARDED_BY(mutex_) = 0;   ///< next block to claim
  std::uint64_t added_ GUARDED_BY(mutex_) = 0;  ///< blocks added so far
  std::array<bool, kZetaRingBlocks> filled_ GUARDED_BY(mutex_) = {};
};

}  // namespace

double ZipfianKeys::zeta(std::uint64_t from, std::uint64_t to, double theta,
                         double initial, unsigned threads) {
  // zeta(n) = sum_{i=1..n} 1/i^theta, computed incrementally from `from`.
  if (threads <= 1) {
    double z = initial;
    for (std::uint64_t i = from; i < to; ++i) z += zeta_term(i, theta);
    return z;
  }
  HARMONY_CHECK(from <= to);
  ZetaRing ring(from, to, theta);
  // The calling thread is the adder; the pool's workers only fill.
  ThreadPool pool(std::min(threads, kZetaMaxThreads) - 1);
  std::vector<std::future<void>> fillers;
  fillers.reserve(pool.thread_count());
  for (std::size_t t = 0; t < pool.thread_count(); ++t) {
    fillers.push_back(pool.submit([&ring] { ring.fill_blocks(); }));
  }
  const double z = ring.add_blocks(initial);
  for (std::future<void>& f : fillers) f.get();
  return z;
}

ZipfianKeys::ZipfianKeys(std::uint64_t n, double theta)
    : n_(0), theta_(theta), zeta_n_(0), alpha_(0), eta_(0), zeta2theta_(0),
      rank1_bound_(1.0 + std::pow(0.5, theta)) {
  HARMONY_CHECK(n > 0);
  HARMONY_CHECK_MSG(theta > 0 && theta < 1,
                    "YCSB zipfian requires theta in (0,1)");
  zeta2theta_ = zeta(0, 2, theta_, 0.0, 1);
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
  zeta_n_ = zeta(n_, n, theta_, zeta_n_, setup_threads(n - n_));
  n_ = n;
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
         (1.0 - zeta2theta_ / zeta_n_);
}

std::uint64_t ZipfianKeys::next_rank(Rng& rng) {
  // Gray et al. closed-form inverse; identical to YCSB's ZipfianGenerator.
  const double u = rng.uniform();
  const double uz = u * zeta_n_;
  if (uz < 1.0) return 0;
  if (uz < rank1_bound_) return 1;
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
      return std::make_unique<ZipfianKeys>(item_count);
    case KeyDistributionKind::kScrambledZipfian:
      return std::make_unique<ScrambledZipfianKeys>(item_count);
  }
  HARMONY_CHECK_MSG(false, "unreachable: bad KeyDistributionKind");
  return nullptr;
}

}  // namespace harmony
