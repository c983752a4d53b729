// Fixed-size thread pool with future-returning submit() and a blocking
// parallel_for. Experiment harnesses use it to run *independent* simulations
// concurrently (policy/level/tolerance grids); the simulations themselves stay
// single-threaded for determinism, so there is no shared mutable state between
// tasks (C++ Core Guidelines CP.2: avoid data races by construction).
//
// Locking discipline is machine-checked: every cross-thread member is
// GUARDED_BY(mutex_) and every entry point that locks internally is
// EXCLUDES(mutex_), so clang -Wthread-safety (see common/thread_annotations.h
// and docs/INVARIANTS.md) proves the queue is never touched without the lock.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace harmony {

class ThreadPool {
 public:
  /// threads == 0 means hardware_concurrency() (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Run fn() on a worker; the returned future carries the result/exception.
  template <typename Fn, typename R = std::invoke_result_t<Fn>>
  std::future<R> submit(Fn fn) EXCLUDES(mutex_) {
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    std::future<R> result = task->get_future();
    enqueue([task] { (*task)(); });
    return result;
  }

  /// Evaluate fn(i) for i in [0, n), blocking until all complete.
  /// Exceptions from iterations are rethrown (first one wins).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn)
      EXCLUDES(mutex_);

 private:
  void enqueue(std::function<void()> job) EXCLUDES(mutex_);
  void worker_loop() EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> jobs_ GUARDED_BY(mutex_);
  bool stopping_ GUARDED_BY(mutex_) = false;
};

}  // namespace harmony
