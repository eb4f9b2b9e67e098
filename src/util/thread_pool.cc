#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace rdfsr::util {

namespace {

/// First-exception capture for ParallelFor: lanes Record() concurrently
/// during the fan-out; the calling thread Take()s after every chunk joined.
/// Keeping the fold behind methods of the owning class (instead of a bare
/// mutex + captured locals) lets the thread-safety analysis check the
/// guarded access on Clang builds.
class ErrorCapture {
 public:
  void Record(std::exception_ptr error) {
    MutexLock lock(mu_);
    if (!error_) error_ = std::move(error);
  }

  std::exception_ptr Take() {
    MutexLock lock(mu_);
    return error_;
  }

 private:
  Mutex mu_;
  std::exception_ptr error_ RDFSR_GUARDED_BY(mu_);
};

}  // namespace

ThreadPool::ThreadPool(int workers) {
  threads_.reserve(static_cast<std::size_t>(std::max(workers, 0)));
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::packaged_task<void()> task;
    {
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) return;  // stop_ with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // packaged_task captures exceptions into the future
  }
}

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> future = task.get_future();
  if (threads_.empty()) {
    task();
    return future;
  }
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.NotifyOne();
  return future;
}

void ThreadPool::ParallelFor(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t lanes = static_cast<std::size_t>(workers()) + 1;
  if (lanes == 1) {
    fn(0, n);
    return;
  }
  // More chunks than lanes so uneven per-index costs rebalance; the atomic
  // dispenser hands chunks to whichever lane frees up first.
  const std::size_t chunks = std::min(n, lanes * 4);
  const std::size_t step = (n + chunks - 1) / chunks;
  std::atomic<std::size_t> next{0};
  ErrorCapture error;
  auto run = [&] {
    while (true) {
      const std::size_t begin = next.fetch_add(step);
      if (begin >= n) return;
      try {
        fn(begin, std::min(n, begin + step));
      } catch (...) {
        error.Record(std::current_exception());
      }
    }
  };
  std::vector<std::future<void>> helpers;
  const std::size_t helper_count =
      std::min(static_cast<std::size_t>(workers()), chunks - 1);
  helpers.reserve(helper_count);
  for (std::size_t i = 0; i < helper_count; ++i) {
    helpers.push_back(Submit(run));
  }
  run();
  for (std::future<void>& h : helpers) h.get();  // run() never throws
  if (std::exception_ptr first = error.Take()) std::rethrow_exception(first);
}

int ThreadPool::ResolveThreads(int requested) {
  if (requested >= 1) return std::min(requested, kMaxThreads);
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(
      std::clamp(hw, 1u, static_cast<unsigned>(kMaxThreads)));
}

}  // namespace rdfsr::util
