// Clang Thread Safety Analysis capability annotations (Hutchins, Ballman,
// Sutherland, "C/C++ Thread Safety Analysis"). The macros attach lock
// requirements to data and functions so the discipline the comments used to
// state — "queue_ is only touched under mu_", "ParseSpecLocked requires the
// registry mutex" — becomes a compile-time proof:
//
//   util::Mutex mu;
//   int balance RDFSR_GUARDED_BY(mu);        // reads/writes need mu held
//   void Credit(int n) RDFSR_REQUIRES(mu);   // callers must hold mu
//
// Enforcement is opt-in per build: `cmake -DRDFSR_THREAD_SAFETY=ON` (Clang
// only) promotes -Wthread-safety and -Wthread-safety-beta to errors, and the
// CI `thread-safety` job runs that configuration on every push. Off Clang the
// macros expand to nothing, so GCC builds are unaffected.
//
// This is the static half of the repo's race coverage: the TSan CI job proves
// the interleavings the test suite happens to execute are race-free; the
// analysis here proves every lock-discipline violation the annotations can
// express is absent from all paths, executed or not. The analysis cannot see
// lock-free state. Outside src/util/ the `atomic-ref` lint rule
// (tools/lint/rdfsr_lint.py) makes every lock-free site carry a written
// waiver stating its ownership contract; the library has no such site (its
// only atomics are util's own: ParallelFor's chunk counter and the
// cancellation flag).

#ifndef RDFSR_UTIL_THREAD_ANNOTATIONS_H_
#define RDFSR_UTIL_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && !defined(SWIG)
#define RDFSR_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define RDFSR_THREAD_ANNOTATION__(x)  // no-op off Clang
#endif

/// Marks a class as a capability (a lockable resource). The string names the
/// capability kind in diagnostics, e.g. RDFSR_CAPABILITY("mutex").
#define RDFSR_CAPABILITY(x) RDFSR_THREAD_ANNOTATION__(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases a
/// capability (util::MutexLock).
#define RDFSR_SCOPED_CAPABILITY RDFSR_THREAD_ANNOTATION__(scoped_lockable)

/// Data members: reads and writes require the named capability to be held.
#define RDFSR_GUARDED_BY(x) RDFSR_THREAD_ANNOTATION__(guarded_by(x))

/// Pointer members: dereferencing requires the capability (the pointer value
/// itself is unguarded).
#define RDFSR_PT_GUARDED_BY(x) RDFSR_THREAD_ANNOTATION__(pt_guarded_by(x))

/// Lock-ordering declarations between capabilities (deadlock prevention).
#define RDFSR_ACQUIRED_BEFORE(...) \
  RDFSR_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define RDFSR_ACQUIRED_AFTER(...) \
  RDFSR_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))

/// Function precondition: the capability is held on entry and still held on
/// exit (the "Locked" suffix convention in this repo).
#define RDFSR_REQUIRES(...) \
  RDFSR_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define RDFSR_REQUIRES_SHARED(...) \
  RDFSR_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))

/// Function effect: acquires the capability (not held on entry, held on
/// exit). With no argument, applies to `this`.
#define RDFSR_ACQUIRE(...) \
  RDFSR_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define RDFSR_ACQUIRE_SHARED(...) \
  RDFSR_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))

/// Function effect: releases the capability (held on entry, not on exit).
#define RDFSR_RELEASE(...) \
  RDFSR_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define RDFSR_RELEASE_SHARED(...) \
  RDFSR_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))
#define RDFSR_RELEASE_GENERIC(...) \
  RDFSR_THREAD_ANNOTATION__(release_generic_capability(__VA_ARGS__))

/// Function effect: acquires the capability iff the return value equals the
/// first macro argument, e.g. RDFSR_TRY_ACQUIRE(true).
#define RDFSR_TRY_ACQUIRE(...) \
  RDFSR_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))

/// Function precondition: the capability must NOT be held (guards against
/// self-deadlock on non-reentrant mutexes).
#define RDFSR_EXCLUDES(...) \
  RDFSR_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the capability is held (informs the analysis
/// without acquiring anything).
#define RDFSR_ASSERT_CAPABILITY(x) \
  RDFSR_THREAD_ANNOTATION__(assert_capability(x))

/// Accessor functions returning a reference to a capability.
#define RDFSR_RETURN_CAPABILITY(x) RDFSR_THREAD_ANNOTATION__(lock_returned(x))

/// Escape hatch: disables the analysis inside one function. Every use must
/// say why the discipline holds anyway.
#define RDFSR_NO_THREAD_SAFETY_ANALYSIS \
  RDFSR_THREAD_ANNOTATION__(no_thread_safety_analysis)

#endif  // RDFSR_UTIL_THREAD_ANNOTATIONS_H_
