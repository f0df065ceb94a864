#ifndef SKEENA_COMMON_SPIN_LATCH_H_
#define SKEENA_COMMON_SPIN_LATCH_H_

#include <atomic>

#include "common/thread_annotations.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace skeena {

inline void CpuRelax() {
#if defined(__x86_64__)
  _mm_pause();
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Tiny test-and-test-and-set spin latch. Used where hold times are a few
/// dozen instructions (version-chain installs, allocation lists); everything
/// longer uses the annotated Mutex/SharedMutex wrappers. A capability like
/// them: fields it guards take SKEENA_GUARDED_BY(latch) and helpers that
/// assume it take SKEENA_REQUIRES(latch). Keeps the std lowercase
/// lock()/unlock() names so std::lock_guard<SpinLatch> still compiles, but
/// prefer SpinLatchGuard — the scoped form TSA can track.
class SKEENA_CAPABILITY("spin_latch") SpinLatch {
 public:
  SpinLatch() = default;
  SpinLatch(const SpinLatch&) = delete;
  SpinLatch& operator=(const SpinLatch&) = delete;

  void lock() SKEENA_ACQUIRE() {
    while (true) {
      if (!locked_.exchange(true, std::memory_order_acquire)) return;
      // relaxed-ok: pure spin-test; the winning exchange above is the
      // acquire that orders the critical section.
      while (locked_.load(std::memory_order_relaxed)) CpuRelax();
    }
  }

  bool try_lock() SKEENA_TRY_ACQUIRE(true) {
    // relaxed-ok: contention pre-check only; the exchange is the acquire.
    return !locked_.load(std::memory_order_relaxed) &&
           !locked_.exchange(true, std::memory_order_acquire);
  }

  void unlock() SKEENA_RELEASE() {
    locked_.store(false, std::memory_order_release);
  }

  bool is_locked() const { return locked_.load(std::memory_order_acquire); }

 private:
  std::atomic<bool> locked_{false};
};

/// Scoped SpinLatch holder (the annotated std::lock_guard<SpinLatch>).
class SKEENA_SCOPED_CAPABILITY SpinLatchGuard {
 public:
  explicit SpinLatchGuard(SpinLatch& latch) SKEENA_ACQUIRE(latch)
      : latch_(latch) {
    latch_.lock();
  }
  ~SpinLatchGuard() SKEENA_RELEASE() { latch_.unlock(); }

  SpinLatchGuard(const SpinLatchGuard&) = delete;
  SpinLatchGuard& operator=(const SpinLatchGuard&) = delete;

 private:
  SpinLatch& latch_;
};

/// Pads T to a cache line to avoid false sharing in per-thread arrays.
template <typename T>
struct alignas(64) Padded {
  T value{};
};

/// Monotone CAS-max: raises `target` to at least `value` and returns the
/// resulting maximum (never less than either input). Idempotent across
/// racing callers — the shared helper behind the engines' GC floors and
/// the TrxSys counter, so the loop's subtleties live once.
template <typename T>
inline T AtomicFetchMax(std::atomic<T>& target, T value,
                        std::memory_order success_order) {
  // relaxed-ok: pre-read and CAS-failure reload only seed the retry loop;
  // the caller-chosen success_order is the publication edge.
  T cur = target.load(std::memory_order_relaxed);
  while (cur < value && !target.compare_exchange_weak(
                            cur, value, success_order,
                            std::memory_order_relaxed)) {  // relaxed-ok: ^
  }
  return cur < value ? value : cur;
}

}  // namespace skeena

#endif  // SKEENA_COMMON_SPIN_LATCH_H_
