#pragma once

#include <condition_variable>
#include <mutex>

// Clang Thread Safety Analysis support: annotated mutex / lock / condvar
// wrappers plus the attribute macros behind them. Every mutex in src/ is a
// step::Mutex from this header, so the locking discipline of the shared
// structures (thread pool, decomposition cache) is *proved at compile
// time* on any clang build:
//
//   clang++ -Wthread-safety -Werror=thread-safety   (CI adds this
//   automatically on the clang leg; see CMakeLists.txt)
//
// The analysis is a static lockset proof: each field tagged STEP_GUARDED_BY
// may only be touched while its capability (mutex) is held, each function
// tagged STEP_REQUIRES may only be called with the lock held, and a
// MutexLock in scope is how the compiler sees the lock being held. On
// compilers without the attributes (gcc) every macro expands to nothing and
// the wrappers degrade to the plain std equivalents they contain — zero
// semantic or performance difference, the proof is simply not re-checked.
//
// docs/ARCHITECTURE.md § "Static analysis & concurrency contracts" lists
// which capability guards what and how to read an analysis error.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define STEP_TSA_ATTR(x) __attribute__((x))
#endif
#endif
#ifndef STEP_TSA_ATTR
#define STEP_TSA_ATTR(x)  // not clang: annotations compile away
#endif

/// Declares a type to be a capability (lockable).
#define STEP_CAPABILITY(x) STEP_TSA_ATTR(capability(x))
/// Declares an RAII type that acquires on construction, releases on
/// destruction.
#define STEP_SCOPED_CAPABILITY STEP_TSA_ATTR(scoped_lockable)
/// Field may only be accessed while holding capability `x`.
#define STEP_GUARDED_BY(x) STEP_TSA_ATTR(guarded_by(x))
/// Pointee (not the pointer itself) is guarded by capability `x`.
#define STEP_PT_GUARDED_BY(x) STEP_TSA_ATTR(pt_guarded_by(x))
/// Caller must hold the listed capabilities to call this function.
#define STEP_REQUIRES(...) STEP_TSA_ATTR(requires_capability(__VA_ARGS__))
/// Function acquires the listed capabilities (and does not release them).
#define STEP_ACQUIRE(...) STEP_TSA_ATTR(acquire_capability(__VA_ARGS__))
/// Function releases the listed capabilities.
#define STEP_RELEASE(...) STEP_TSA_ATTR(release_capability(__VA_ARGS__))
/// Function acquires the capability iff it returns `b`.
#define STEP_TRY_ACQUIRE(b, ...) \
  STEP_TSA_ATTR(try_acquire_capability(b, __VA_ARGS__))
/// Caller must NOT hold the listed capabilities (deadlock guard).
#define STEP_EXCLUDES(...) STEP_TSA_ATTR(locks_excluded(__VA_ARGS__))
/// Function returns a reference to the capability `x`.
#define STEP_RETURN_CAPABILITY(x) STEP_TSA_ATTR(lock_returned(x))
/// Lock-ordering declaration: this capability is acquired before `...`.
#define STEP_ACQUIRED_BEFORE(...) STEP_TSA_ATTR(acquired_before(__VA_ARGS__))
/// Lock-ordering declaration: this capability is acquired after `...`.
#define STEP_ACQUIRED_AFTER(...) STEP_TSA_ATTR(acquired_after(__VA_ARGS__))
/// Escape hatch: the function body is not analyzed. Reserved for the
/// wrapper internals in this header; production code must not use it
/// (the CI acceptance gate greps for exactly that).
#define STEP_NO_THREAD_SAFETY_ANALYSIS STEP_TSA_ATTR(no_thread_safety_analysis)

namespace step {

class CondVar;

/// Annotated std::mutex. Prefer MutexLock over manual lock()/unlock():
/// the scoped form is exception-safe and is what the analysis tracks most
/// precisely.
class STEP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() STEP_ACQUIRE() { mu_.lock(); }
  void unlock() STEP_RELEASE() { mu_.unlock(); }
  bool try_lock() STEP_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock, the std::lock_guard of the annotated world.
class STEP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) STEP_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() STEP_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to a Mutex at each wait site. wait() requires
/// the capability, so the compiler proves every waiter actually holds the
/// mutex it sleeps on. There is deliberately no predicate overload: a
/// predicate lambda would be analyzed as a separate function that cannot
/// see the held lock, so callers hand-roll the standard
///   while (!predicate) cv.wait(mu);
/// loop in the locked scope, where the analysis follows every guarded read.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu` and sleeps; `mu` is re-held on return.
  /// Spurious wakeups are possible, exactly as with std::condition_variable.
  void wait(Mutex& mu) STEP_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();  // ownership stays with the caller's MutexLock
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace step
