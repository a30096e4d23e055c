// Clang thread-safety annotations + annotated synchronization primitives.
//
// The repo's core contract is bit-identical RunReports under any thread
// schedule, and the sweep runner shares the System caches across its
// workers.  Lock discipline is therefore proven at COMPILE
// time, not just probed by TSan: every mutex in src/ is an `em2::Mutex`,
// every guard an `em2::MutexLock`, and every field they protect carries
// `EM2_GUARDED_BY(mutex_)`.  Under clang the build runs with
// `-Werror=thread-safety` (see CMakeLists.txt), so touching a guarded
// field without its lock, or calling an `EM2_REQUIRES(mu)` function
// without holding `mu`, is a build break.  Under other compilers the
// macros expand to nothing and the wrappers are zero-cost veneers over
// the standard primitives.
//
// Macro vocabulary (the clang attribute in parentheses):
//   EM2_CAPABILITY(name)        a lockable type            (capability)
//   EM2_SCOPED_CAPABILITY       RAII lock type             (scoped_lockable)
//   EM2_GUARDED_BY(mu)          data needs mu held         (guarded_by)
//   EM2_PT_GUARDED_BY(mu)       pointee needs mu held      (pt_guarded_by)
//   EM2_REQUIRES(mu, ...)       caller must hold mu        (requires_capability)
//   EM2_ACQUIRE(mu, ...)        function takes mu          (acquire_capability)
//   EM2_RELEASE(mu, ...)        function drops mu          (release_capability)
//   EM2_TRY_ACQUIRE(ok, mu)     conditional acquire        (try_acquire_capability)
//   EM2_EXCLUDES(mu, ...)       caller must NOT hold mu    (locks_excluded)
//   EM2_RETURN_CAPABILITY(mu)   getter returning a lock    (lock_returned)
//   EM2_NO_THREAD_SAFETY_ANALYSIS  opt a function out (justify in a comment)
//
// The negative-compile harness (tests/static/, registered by CMake on
// clang builds) keeps the analysis honest: a REQUIRES violation must
// fail the build, and the positive control must pass.
#pragma once

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define EM2_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef EM2_THREAD_ANNOTATION
#define EM2_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

#define EM2_CAPABILITY(x) EM2_THREAD_ANNOTATION(capability(x))
#define EM2_SCOPED_CAPABILITY EM2_THREAD_ANNOTATION(scoped_lockable)
#define EM2_GUARDED_BY(x) EM2_THREAD_ANNOTATION(guarded_by(x))
#define EM2_PT_GUARDED_BY(x) EM2_THREAD_ANNOTATION(pt_guarded_by(x))
#define EM2_REQUIRES(...) \
  EM2_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define EM2_ACQUIRE(...) \
  EM2_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define EM2_RELEASE(...) \
  EM2_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define EM2_TRY_ACQUIRE(...) \
  EM2_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define EM2_EXCLUDES(...) EM2_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define EM2_RETURN_CAPABILITY(x) EM2_THREAD_ANNOTATION(lock_returned(x))
#define EM2_NO_THREAD_SAFETY_ANALYSIS \
  EM2_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace em2 {

/// std::mutex with the `capability` attribute so the analysis can track
/// it.  Use MutexLock for scopes; call lock()/unlock() directly only in
/// code that genuinely needs manual pairing.
class EM2_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() EM2_ACQUIRE() { mu_.lock(); }
  void unlock() EM2_RELEASE() { mu_.unlock(); }
  bool try_lock() EM2_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII guard over Mutex — the std::lock_guard of this codebase.  The
/// `scoped_lockable` attribute tells the analysis the capability is held
/// for exactly the guard's lifetime.
class EM2_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) EM2_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() EM2_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with Mutex.  wait() requires the caller to
/// hold the mutex (the analysis enforces it); it is released for the
/// duration of the block and re-held on return, like
/// std::condition_variable.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mu) EM2_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();  // the caller still logically holds `mu`
  }

  template <typename Predicate>
  void wait(Mutex& mu, Predicate stop_waiting) EM2_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    cv_.wait(lk, std::move(stop_waiting));
    lk.release();
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace em2
