#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

namespace harmony {
namespace {

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesException) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ManyTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> fs;
  for (int i = 0; i < 200; ++i) {
    fs.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : fs) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, ParallelForRethrows) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 3) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ThreadCountDefaultsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, ParallelForFirstExceptionWins) {
  // Several iterations throw; exactly one propagates and the call returns.
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i % 10 == 3) {
                                     throw std::runtime_error("fail");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, SubmitAfterParallelForStillWorks) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(4, [](std::size_t) { throw std::logic_error("x"); }),
      std::logic_error);
  auto f = pool.submit([] { return 7; });
  EXPECT_EQ(f.get(), 7);
}

}  // namespace
}  // namespace harmony
