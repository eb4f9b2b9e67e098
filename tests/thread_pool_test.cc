// Tests for util::ThreadPool: work completion, exception propagation (both
// through Submit futures and ParallelFor's rethrow), reuse across submits,
// and the inline 0-worker degenerate case the call sites rely on
// (ThreadPool(threads - 1) gives exactly `threads` lanes).

#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <future>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace rdfsr::util {
namespace {

TEST(ThreadPoolTest, SubmitRunsTasksToCompletion) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.workers(), 3);
  // lint:allow(atomic-ref: test-owned counter; Submit futures joined below publish the final value)
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.Submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 0);
  int ran = 0;
  auto f = pool.Submit([&ran] { ++ran; });
  // With no workers the task ran before Submit returned; no other thread
  // exists that could have touched `ran`.
  EXPECT_EQ(ran, 1);
  f.get();

  std::vector<int> hits(10, 0);
  pool.ParallelFor(hits.size(), [&hits](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 10);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{64}, std::size_t{1000}}) {
    // lint:allow(atomic-ref: per-index hit counters owned by the ParallelFor phase; its join publishes them)
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    pool.ParallelFor(n, [&hits](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) ++hits[i];
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST(ThreadPoolTest, SubmitFuturePropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The worker that ran the throwing task must survive for later tasks.
  auto g = pool.Submit([] {});
  g.get();
}

TEST(ThreadPoolTest, ParallelForRethrowsTaskException) {
  ThreadPool pool(3);
  // lint:allow(atomic-ref: chunk-visit counter owned by the ParallelFor phase; read after the rethrowing join)
  std::atomic<int> visited{0};
  EXPECT_THROW(
      pool.ParallelFor(100,
                       [&visited](std::size_t b, std::size_t e) {
                         visited += static_cast<int>(e - b);
                         if (b == 0) throw std::runtime_error("chunk failed");
                       }),
      std::runtime_error);
  // All chunks were still dispatched (the rethrow happens after the join),
  // so the pool is quiescent and reusable.
  // lint:allow(atomic-ref: reuse-round counter owned by the second ParallelFor; its join publishes it)
  std::atomic<int> counter{0};
  pool.ParallelFor(10, [&counter](std::size_t b, std::size_t e) {
    counter += static_cast<int>(e - b);
  });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, ReusableAcrossManyRounds) {
  // The agglomerative loop reuses one pool for thousands of small rounds;
  // workers must neither leak nor wedge across calls.
  ThreadPool pool(2);
  long long total = 0;
  for (int round = 0; round < 200; ++round) {
    std::vector<long long> values(64, 0);
    pool.ParallelFor(values.size(), [&values, round](std::size_t b,
                                                     std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        values[i] = static_cast<long long>(i) + round;  // disjoint writes
      }
    });
    total += std::accumulate(values.begin(), values.end(), 0LL);
  }
  // sum over rounds of sum_{i<64} (i + round) = 200*2016 + 64*(0+..+199).
  EXPECT_EQ(total, 200LL * 2016 + 64LL * (199 * 200 / 2));
}

TEST(ThreadPoolTest, ResolveThreadsClampsToHardware) {
  EXPECT_EQ(ThreadPool::ResolveThreads(1), 1);
  EXPECT_EQ(ThreadPool::ResolveThreads(7), 7);
  EXPECT_GE(ThreadPool::ResolveThreads(0), 1);
  EXPECT_GE(ThreadPool::ResolveThreads(-3), 1);
  EXPECT_LE(ThreadPool::ResolveThreads(0), ThreadPool::kMaxThreads);
  // Resolved only, never constructed: the bound keeps a huge knob from
  // starting a huge pool.
  EXPECT_EQ(ThreadPool::ResolveThreads(1 << 20), ThreadPool::kMaxThreads);
}

}  // namespace
}  // namespace rdfsr::util
