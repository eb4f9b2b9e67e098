// Capability-annotated mutex wrappers — the only blocking-synchronization
// primitives allowed outside src/util/ (enforced by the `lock-wrapper` lint
// rule, the locking analogue of the thread-rand rule's ThreadPool funnel).
//
// util::Mutex wraps std::mutex as a Clang Thread Safety Analysis capability,
// so shared state can be declared RDFSR_GUARDED_BY(mu) and locked helpers
// RDFSR_REQUIRES(mu); `cmake -DRDFSR_THREAD_SAFETY=ON` then turns any access
// outside the lock into a compile error. util::MutexLock is the scoped
// acquire, util::CondVar the matching condition variable (Wait requires the
// mutex held, releases it while blocked, and reacquires before returning —
// callers re-check their predicate in a loop, which keeps the wait condition
// visible to the analysis instead of hidden inside a predicate lambda).

#ifndef RDFSR_UTIL_MUTEX_H_
#define RDFSR_UTIL_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace rdfsr::util {

class CondVar;

/// An exclusive capability over std::mutex. Prefer MutexLock for scoped
/// acquisition; bare Lock/Unlock exist for the rare split-scope pattern.
class RDFSR_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() RDFSR_ACQUIRE() { mu_.lock(); }
  void Unlock() RDFSR_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;  // Wait adopts the underlying std::mutex
  std::mutex mu_;
};

/// Scoped acquisition: holds `mu` from construction to scope exit.
class RDFSR_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) RDFSR_ACQUIRE(mu) : mu_(mu) { mu.Lock(); }
  ~MutexLock() RDFSR_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with util::Mutex. No predicate overload on
/// purpose: callers write `while (!cond) cv.Wait(mu);` so the guarded reads
/// in `cond` sit in a scope the thread-safety analysis can check.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu` and blocks; reacquires `mu` before returning.
  /// Spurious wakeups are possible — always re-check the predicate.
  void Wait(Mutex& mu) RDFSR_REQUIRES(mu) {
    // Adopt the already-held native mutex for the wait, then release the
    // unique_lock's ownership claim so the caller's MutexLock remains the
    // single owner; the capability never changes hands.
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace rdfsr::util

#endif  // RDFSR_UTIL_MUTEX_H_
