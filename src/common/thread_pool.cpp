#include "common/thread_pool.h"

#include <atomic>

#include "common/check.h"
#include "common/first_error.h"

namespace harmony {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::enqueue(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    HARMONY_CHECK_MSG(!stopping_, "submit() on a stopping ThreadPool");
    jobs_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // Explicit predicate loop (rather than cv_.wait(lock, lambda)): the
      // guarded reads stay in this scope, where the analysis can see the
      // unique_lock holding mutex_.
      while (!stopping_ && jobs_.empty()) cv_.wait(lock);
      if (jobs_.empty()) return;  // stopping and drained
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    job();  // packaged_task captures exceptions into its future
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  std::atomic<std::size_t> next{0};
  FirstError error;

  auto body = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n || error.failed()) return;
      try {
        fn(i);
      } catch (...) {
        error.capture(std::current_exception());
        return;
      }
    }
  };

  const std::size_t width = std::min(n, thread_count());
  std::vector<std::future<void>> futures;
  futures.reserve(width);
  for (std::size_t i = 0; i < width; ++i) futures.push_back(submit(body));
  for (auto& f : futures) f.get();
  error.rethrow_if_failed();
}

}  // namespace harmony
