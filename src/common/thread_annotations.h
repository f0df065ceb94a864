#ifndef SKEENA_COMMON_THREAD_ANNOTATIONS_H_
#define SKEENA_COMMON_THREAD_ANNOTATIONS_H_

// Clang Thread Safety Analysis (TSA) for Skeena: the locking contracts that
// used to live in comments ("guarded by mu_", "caller holds write_mu_")
// become compile-time-checked attributes. Under clang with
// -Wthread-safety (the SKEENA_THREAD_SAFETY CMake switch turns it on with
// -Werror=thread-safety), a field declared SKEENA_GUARDED_BY(mu_) cannot be
// touched without mu_ held, and a *Locked() helper declared
// SKEENA_REQUIRES(mu_) cannot be called without it. Under GCC (which has no
// TSA) every macro expands to nothing and the wrappers below cost exactly a
// std::mutex / std::shared_mutex / std::condition_variable.
//
// The annotated wrappers are the ONLY place in src/ allowed to declare the
// raw std synchronization types: scripts/check_invariants.py rejects
// std::mutex / std::shared_mutex / std::condition_variable declarations in
// any other file, so a new locking class cannot silently opt out of the
// analysis. See DESIGN.md "Static analysis".
//
// Semantics cheat-sheet (full reference:
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html):
//  * SKEENA_CAPABILITY marks a class as a lockable resource.
//  * SKEENA_GUARDED_BY(mu) on a field: reads and writes require mu.
//  * SKEENA_PT_GUARDED_BY(mu) on a pointer/smart-pointer field: the
//    *pointee* requires mu (the pointer itself does not).
//  * SKEENA_REQUIRES(mu) on a function: caller must hold mu (held on entry
//    and exit). The convention for private helpers named *Locked().
//  * SKEENA_ACQUIRE / SKEENA_RELEASE on a function: it takes / drops mu.
//  * SKEENA_EXCLUDES(mu) on a function: caller must NOT hold mu (deadlock
//    documentation the analysis enforces).
//  * SKEENA_NO_THREAD_SAFETY_ANALYSIS: escape hatch for functions whose
//    protocol the analysis cannot model (adopt/release tricks, conditional
//    locking). Every use must carry a comment saying why.

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define SKEENA_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#ifndef SKEENA_THREAD_ANNOTATION_
#define SKEENA_THREAD_ANNOTATION_(x)  // no-op: GCC and pre-TSA clang
#endif

#define SKEENA_CAPABILITY(x) SKEENA_THREAD_ANNOTATION_(capability(x))
#define SKEENA_SCOPED_CAPABILITY SKEENA_THREAD_ANNOTATION_(scoped_lockable)
#define SKEENA_GUARDED_BY(x) SKEENA_THREAD_ANNOTATION_(guarded_by(x))
#define SKEENA_PT_GUARDED_BY(x) SKEENA_THREAD_ANNOTATION_(pt_guarded_by(x))
#define SKEENA_ACQUIRED_BEFORE(...) \
  SKEENA_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define SKEENA_ACQUIRED_AFTER(...) \
  SKEENA_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))
#define SKEENA_REQUIRES(...) \
  SKEENA_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define SKEENA_REQUIRES_SHARED(...) \
  SKEENA_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))
#define SKEENA_ACQUIRE(...) \
  SKEENA_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define SKEENA_ACQUIRE_SHARED(...) \
  SKEENA_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
#define SKEENA_RELEASE(...) \
  SKEENA_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define SKEENA_RELEASE_SHARED(...) \
  SKEENA_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))
#define SKEENA_RELEASE_GENERIC(...) \
  SKEENA_THREAD_ANNOTATION_(release_generic_capability(__VA_ARGS__))
#define SKEENA_TRY_ACQUIRE(...) \
  SKEENA_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define SKEENA_TRY_ACQUIRE_SHARED(...) \
  SKEENA_THREAD_ANNOTATION_(try_acquire_shared_capability(__VA_ARGS__))
#define SKEENA_EXCLUDES(...) \
  SKEENA_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#define SKEENA_ASSERT_CAPABILITY(x) \
  SKEENA_THREAD_ANNOTATION_(assert_capability(x))
#define SKEENA_ASSERT_SHARED_CAPABILITY(x) \
  SKEENA_THREAD_ANNOTATION_(assert_shared_capability(x))
#define SKEENA_RETURN_CAPABILITY(x) SKEENA_THREAD_ANNOTATION_(lock_returned(x))
#define SKEENA_NO_THREAD_SAFETY_ANALYSIS \
  SKEENA_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace skeena {

class CondVar;

/// Annotated exclusive mutex. Same cost as std::mutex; prefer the scoped
/// MutexLock over manual Lock/Unlock pairs.
class SKEENA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() SKEENA_ACQUIRE() { mu_.lock(); }
  void Unlock() SKEENA_RELEASE() { mu_.unlock(); }
  bool TryLock() SKEENA_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// Annotated reader-writer mutex (std::shared_mutex).
class SKEENA_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() SKEENA_ACQUIRE() { mu_.lock(); }
  void Unlock() SKEENA_RELEASE() { mu_.unlock(); }
  bool TryLock() SKEENA_TRY_ACQUIRE(true) { return mu_.try_lock(); }
  void LockShared() SKEENA_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() SKEENA_RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

/// Scoped exclusive lock on a Mutex (the std::lock_guard replacement).
class SKEENA_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SKEENA_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() SKEENA_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Scoped exclusive lock that can be dropped before scope exit (the
/// unlock-early half of std::unique_lock; re-locking is deliberately not
/// offered — use a fresh scope).
///
/// There is deliberately no scoped try-lock: TSA tracks `if (mu.TryLock())`
/// branches on the TRY_ACQUIRE(true) return value but cannot see through a
/// scoped guard's owns_lock() — try-lock sites use explicit
/// TryLock()/Unlock() pairs (they never hold across anything that throws).
class SKEENA_SCOPED_CAPABILITY ReleasableMutexLock {
 public:
  explicit ReleasableMutexLock(Mutex& mu) SKEENA_ACQUIRE(mu) : mu_(&mu) {
    mu_->Lock();
  }
  ~ReleasableMutexLock() SKEENA_RELEASE() {
    if (mu_ != nullptr) mu_->Unlock();
  }

  /// Unlocks now; the destructor becomes a no-op.
  void Release() SKEENA_RELEASE() {
    mu_->Unlock();
    mu_ = nullptr;
  }

  ReleasableMutexLock(const ReleasableMutexLock&) = delete;
  ReleasableMutexLock& operator=(const ReleasableMutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// Scoped exclusive lock on a SharedMutex.
class SKEENA_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) SKEENA_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterMutexLock() SKEENA_RELEASE() { mu_.Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Scoped shared (reader) lock on a SharedMutex.
class SKEENA_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) SKEENA_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderMutexLock() SKEENA_RELEASE_SHARED() { mu_.UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Condition variable working with the annotated Mutex. Every wait takes
/// the Mutex itself (not a lock object) and is annotated REQUIRES(mu): the
/// analysis checks the caller holds the mutex across the wait, which is
/// also the documentation convention — "waits are stated against the mutex
/// they release".
///
/// NOTE for EpochGuard discipline: all Wait* methods are blocking waits;
/// scripts/check_invariants.py rejects calls with an EpochGuard live (the
/// docs/RECLAMATION.md pin rule).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, and re-acquires `mu` before
  /// returning. Spurious wakeups possible — loop on the predicate.
  void Wait(Mutex& mu) SKEENA_REQUIRES(mu) SKEENA_NO_THREAD_SAFETY_ANALYSIS {
    // Adopt/release so the wait drives the raw std::mutex without a second
    // lock object; the net lock state is unchanged, which is exactly what
    // REQUIRES promises — TSA cannot see through the adopt, hence the
    // no-analysis escape on the implementation only.
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();
  }

  template <typename Pred>
  void Wait(Mutex& mu, Pred&& pred) SKEENA_REQUIRES(mu) {
    while (!pred()) Wait(mu);
  }

  /// Timed wait; returns false on timeout (predicate-less form mirrors
  /// std::cv_status, predicate form re-checks like std).
  template <typename Rep, typename Period>
  bool WaitFor(Mutex& mu, const std::chrono::duration<Rep, Period>& dur)
      SKEENA_REQUIRES(mu) SKEENA_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    bool ok = cv_.wait_for(lk, dur) == std::cv_status::no_timeout;
    lk.release();
    return ok;
  }

  template <typename Rep, typename Period, typename Pred>
  bool WaitFor(Mutex& mu, const std::chrono::duration<Rep, Period>& dur,
               Pred&& pred) SKEENA_REQUIRES(mu)
      SKEENA_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    bool ok = cv_.wait_for(lk, dur, std::forward<Pred>(pred));
    lk.release();
    return ok;
  }

  template <typename Clock, typename Duration>
  bool WaitUntil(Mutex& mu,
                 const std::chrono::time_point<Clock, Duration>& deadline)
      SKEENA_REQUIRES(mu) SKEENA_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    bool ok = cv_.wait_until(lk, deadline) == std::cv_status::no_timeout;
    lk.release();
    return ok;
  }

  template <typename Clock, typename Duration, typename Pred>
  bool WaitUntil(Mutex& mu,
                 const std::chrono::time_point<Clock, Duration>& deadline,
                 Pred&& pred) SKEENA_REQUIRES(mu)
      SKEENA_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    bool ok = cv_.wait_until(lk, deadline, std::forward<Pred>(pred));
    lk.release();
    return ok;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace skeena

#endif  // SKEENA_COMMON_THREAD_ANNOTATIONS_H_
