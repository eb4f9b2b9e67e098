// Cooperative deadlines and cancellation.
//
// A Deadline couples an absolute wall-clock budget (steady_clock, immune to
// NTP jumps) with an optional shared cancel flag. Long-running stages receive
// a CancellationToken view and poll it at cheap, periodic checkpoints —
// between merge rounds, every few thousand parsed lines, every few hundred
// simplex iterations. Nothing is preempted: a tripped token means "stop at
// the next safe point and unwind with partial results intact" (anytime
// semantics), never "abandon state mid-mutation".
//
// The default-constructed Deadline/token is infinite and flagless, so the
// common un-bounded call sites pay a single branch per checkpoint and no
// allocation, no atomic traffic.

#ifndef RDFSR_UTIL_DEADLINE_H_
#define RDFSR_UTIL_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "util/status.h"

namespace rdfsr::util {

class Deadline;

/// Read-only view of a Deadline, cheap to copy into worker stages. A
/// default-constructed token never trips.
class CancellationToken {
 public:
  using Clock = std::chrono::steady_clock;

  CancellationToken() = default;

  /// True when cancellation was explicitly requested (ignores the clock).
  bool cancelled() const {
    return flag_ != nullptr && flag_->load(std::memory_order_relaxed);
  }

  /// True once the deadline has passed (ignores the cancel flag).
  bool expired() const {
    return deadline_ != Clock::time_point::max() && Clock::now() >= deadline_;
  }

  /// True when work should stop: cancelled or past the deadline. The cancel
  /// flag is checked first so explicit cancellation wins the race and the
  /// fully-unbounded token short-circuits without reading the clock.
  bool stop_requested() const { return cancelled() || expired(); }

  /// OK while work may continue; otherwise kCancelled or kDeadlineExceeded
  /// (cancellation reported in preference to expiry when both hold).
  Status status() const {
    if (cancelled()) return Status::Cancelled("operation cancelled");
    if (expired()) return Status::DeadlineExceeded("deadline exceeded");
    return Status::OK();
  }

  /// True when this token can ever trip — lets hot loops hoist the whole
  /// checkpoint out when the caller passed no budget.
  bool can_trip() const {
    return flag_ != nullptr || deadline_ != Clock::time_point::max();
  }

 private:
  friend class Deadline;
  CancellationToken(Clock::time_point deadline,
                    std::shared_ptr<std::atomic<bool>> flag)
      : deadline_(deadline), flag_(std::move(flag)) {}

  Clock::time_point deadline_ = Clock::time_point::max();
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// An absolute time budget plus an owner-side cancel switch. Copyable; all
/// copies share one cancel flag. The default Deadline is infinite and cannot
/// be cancelled (its token never trips and costs nothing to poll).
class Deadline {
 public:
  using Clock = CancellationToken::Clock;

  /// Infinite, non-cancellable deadline.
  Deadline() = default;

  /// A deadline `seconds` from now (also cancellable via RequestCancel).
  /// Non-positive and NaN budgets produce an already-expired deadline. A
  /// budget past the clock's range (about 292 years of nanoseconds from the
  /// clock's epoch), +inf included, saturates: it never expires on its own
  /// but stays cancellable.
  static Deadline After(double seconds) {
    Deadline d;
    d.flag_ = std::make_shared<std::atomic<bool>>(false);
    const Clock::time_point now = Clock::now();
    if (!(seconds > 0.0)) {
      d.deadline_ = now;
      return d;
    }
    // The headroom goes through a double, which rounds; a one-second margin
    // keeps the addition below from overflowing the clock's integer count.
    const double headroom =
        std::chrono::duration<double>(Clock::time_point::max() - now).count();
    if (seconds < headroom - 1.0) {
      d.deadline_ = now + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
    }
    return d;
  }

  /// A deadline `ms` milliseconds from now. Zero means "no deadline"
  /// (matches the DatasetOptions::deadline_ms convention).
  static Deadline AfterMillis(std::int64_t ms) {
    if (ms <= 0) return Deadline();
    return After(static_cast<double>(ms) / 1000.0);
  }

  /// An infinite deadline that can still be cancelled explicitly.
  static Deadline Cancellable() {
    Deadline d;
    d.flag_ = std::make_shared<std::atomic<bool>>(false);
    return d;
  }

  /// Asks every holder of this deadline's tokens to stop at the next safe
  /// point. Safe to call from any thread, idempotent. No-op on the default
  /// (flagless) deadline.
  void RequestCancel() const {
    if (flag_ != nullptr) flag_->store(true, std::memory_order_relaxed);
  }

  /// The pollable view handed to pipeline stages.
  CancellationToken token() const {
    return CancellationToken(deadline_, flag_);
  }

  /// True when this deadline can ever trip.
  bool can_trip() const {
    return flag_ != nullptr || deadline_ != Clock::time_point::max();
  }

 private:
  Clock::time_point deadline_ = Clock::time_point::max();
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Stride-counted checkpoint helper for hot loops: polls the token only every
/// `stride` calls, so the per-iteration cost is one increment and one
/// predictable branch. Stateless callers keep one PeriodicCheck per loop.
class PeriodicCheck {
 public:
  explicit PeriodicCheck(CancellationToken token, std::uint32_t stride = 1024)
      : token_(std::move(token)),
        stride_(stride == 0 ? 1 : stride),
        armed_(token_.can_trip()) {}

  /// True when the token tripped at a sampled checkpoint.
  bool ShouldStop() {
    if (!armed_) return false;
    if (++count_ % stride_ != 0) return false;
    return token_.stop_requested();
  }

  const CancellationToken& token() const { return token_; }

 private:
  CancellationToken token_;
  std::uint32_t stride_;
  bool armed_;
  std::uint32_t count_ = 0;
};

}  // namespace rdfsr::util

#endif  // RDFSR_UTIL_DEADLINE_H_
