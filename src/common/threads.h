// How many threads this process may use, and how many the set-up loop over
// a large input starts: ZipfianKeys::zeta's term sum, the one O(keys) loop
// before a run's first event. It runs its threads on a ThreadPool and gives
// the bytes of its serial loop at any thread count (docs/INVARIANTS.md,
// "Cross-thread structures").
#pragma once

#include <cstdint>

namespace harmony {

/// CPUs this process may run on: its affinity mask where the OS has one (so
/// `taskset` narrows it), else hardware_concurrency(); at least 1. Sizes
/// ThreadPool(0), the sharded executor's spin choice and setup_threads().
unsigned usable_cpus();

/// Zeta terms below which the set-up sum stays serial: a loop this short
/// takes about a millisecond, so starting threads would save little, and it
/// reads no CPU count.
inline constexpr std::uint64_t kParallelSetupMin = std::uint64_t{1} << 16;

/// True on a ThreadPool worker (its worker loop sets it). A parallel sweep
/// grid's cells already fill the pool's CPUs, so their set-up stays serial.
inline thread_local bool tls_pool_worker = false;

/// Threads for a set-up loop over `items` inputs: 1 below
/// kParallelSetupMin or on a ThreadPool worker, else usable_cpus().
inline unsigned setup_threads(std::uint64_t items) {
  if (items < kParallelSetupMin || tls_pool_worker) return 1;
  return usable_cpus();
}

}  // namespace harmony
