// A small fixed-size worker pool shared by every parallel path in the repo:
// the sharded N-Triples load (rdf/ntriples.cc), the signature-index pair
// sort and grouping (schema/index_builder.cc), and the agglomerative row
// recomputation (core/greedy.cc). Each of them runs one code path at any
// lane count: one lane is a pool of 0 workers.
//
// Design constraints, in order:
//  * Determinism. The pool never decides *what* runs — callers partition
//    work into tasks that write disjoint outputs, then combine them in a
//    fixed order on the calling thread. Nothing downstream observes
//    scheduling order.
//  * Exceptions propagate. A task that throws surfaces the exception to the
//    caller (through the Submit future, or rethrown by ParallelFor) instead
//    of terminating a detached worker.
//  * Reusable. Workers persist across Submit/ParallelFor calls, so per-merge
//    row recomputation in the agglomerative loop does not pay thread
//    creation per round.

#ifndef RDFSR_UTIL_THREAD_POOL_H_
#define RDFSR_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace rdfsr::util {

/// Fixed pool of `workers` threads plus the calling thread. A pool of 0
/// workers is valid and runs everything inline on the caller — call sites
/// construct one pool of (threads - 1) workers and get exactly `threads`
/// concurrent lanes through ParallelFor.
class ThreadPool {
 public:
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (the calling thread is not counted).
  int workers() const { return static_cast<int>(threads_.size()); }

  /// Enqueues one task. The returned future rethrows any exception the task
  /// threw. With 0 workers the task runs inline before Submit returns.
  std::future<void> Submit(std::function<void()> fn);

  /// Runs fn(begin, end) over a contiguous partition of [0, n). The calling
  /// thread participates; chunks are handed out dynamically so uneven task
  /// costs balance. Returns after every chunk finished; rethrows the first
  /// observed task exception. Tasks must write disjoint outputs — the
  /// partition boundaries (not the schedule) are the only thing callers may
  /// rely on, and even those vary with n and worker count, so outputs must
  /// not depend on chunk shape either.
  void ParallelFor(std::size_t n,
                   const std::function<void(std::size_t, std::size_t)>& fn);

  /// The most lanes any thread-count knob resolves to. The constructor
  /// starts every worker eagerly, so an unbounded knob would ask the OS for
  /// that many threads.
  static constexpr int kMaxThreads = 1024;

  /// Resolves a user-facing thread-count knob: values < 1 mean "one lane per
  /// hardware thread"; the result is in [1, kMaxThreads].
  static int ResolveThreads(int requested);

 private:
  void WorkerLoop();

  // The pool's entire cross-thread state is one capability: mu_ guards the
  // task queue and the shutdown flag; cv_ signals queue transitions under
  // it. threads_ is not guarded — it is written once by the constructing
  // thread and joined by the destructor, never touched by workers.
  Mutex mu_;
  CondVar cv_;
  std::deque<std::packaged_task<void()>> queue_ RDFSR_GUARDED_BY(mu_);
  bool stop_ RDFSR_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;
};

}  // namespace rdfsr::util

#endif  // RDFSR_UTIL_THREAD_POOL_H_
