// First-exception capture for fan-out code: several threads run work that
// may throw, the first exception wins, and the thread that joins them
// rethrows it. Used by ThreadPool::parallel_for and the sharded executor's
// window workers (sim/shard.cpp).
#pragma once

#include <atomic>
#include <exception>
#include <mutex>

#include "common/thread_annotations.h"

namespace harmony {

/// The hot flag is a relaxed atomic so workers can poll for early exit
/// without taking the lock; the exception itself is GUARDED_BY the mutex so
/// -Wthread-safety can prove the store/rethrow handoff is race-free.
class FirstError {
 public:
  void capture(std::exception_ptr e) EXCLUDES(mutex_) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!error_) error_ = std::move(e);
    failed_.store(true, std::memory_order_relaxed);
  }

  bool failed() const { return failed_.load(std::memory_order_relaxed); }

  void rethrow_if_failed() EXCLUDES(mutex_) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::mutex mutex_;
  std::exception_ptr error_ GUARDED_BY(mutex_);
  std::atomic<bool> failed_{false};
};

}  // namespace harmony
