// Binary-wide heap-allocation counting for zero-allocation assertions.
//
// alloc_guard.cpp replaces the global operator new (and its array/aligned
// variants) with versions that bump a call counter and a byte counter before
// delegating to malloc. Counting is side-effect free for every other test in
// the binary; tests that care wrap their steady-state phase in an AllocGuard
// and assert allocations() == 0, or bound a set-up phase's bytes().
//
// Link alloc_guard.cpp into any test binary that includes this header.
#pragma once

#include <atomic>
#include <cstdint>

namespace harmony::testing {

/// Every global operator new (scalar, array, aligned) increments this.
extern std::atomic<std::uint64_t> g_alloc_count;
/// ...and adds the requested size to this (frees are not subtracted).
extern std::atomic<std::uint64_t> g_alloc_bytes;

/// Scope marker: allocations() / bytes() = global allocation calls / bytes
/// requested since construction.
class AllocGuard {
 public:
  AllocGuard() { reset(); }

  std::uint64_t allocations() const {
    return g_alloc_count.load(std::memory_order_relaxed) - start_;
  }
  std::uint64_t bytes() const {
    return g_alloc_bytes.load(std::memory_order_relaxed) - start_bytes_;
  }

  /// Re-arm the guard (start a fresh measured region).
  void reset() {
    start_ = g_alloc_count.load(std::memory_order_relaxed);
    start_bytes_ = g_alloc_bytes.load(std::memory_order_relaxed);
  }

 private:
  std::uint64_t start_;
  std::uint64_t start_bytes_;
};

}  // namespace harmony::testing
