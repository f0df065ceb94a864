#include "common/parking_lot.h"

#include <chrono>

#include "common/sharded_counter.h"
#include "common/thread_annotations.h"

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#endif

namespace skeena {
namespace {

struct LotCounters {
  ShardedCounter parks;
  ShardedCounter immediate_parks;
  ShardedCounter wakes;
};

LotCounters& Counters() {
  static LotCounters c;
  return c;
}

/// Condvar-bucket fallback. Park/Wake on the same word hash to the same
/// bucket; the bucket mutex orders the waiter's word recheck against the
/// waker's notify, which closes the lost-wakeup window futex closes in the
/// kernel.
struct Bucket {
  Mutex mu;
  CondVar cv;
};

constexpr size_t kBuckets = 64;

Bucket& BucketFor(const void* addr) {
  static Bucket buckets[kBuckets];
  uintptr_t h = reinterpret_cast<uintptr_t>(addr);
  h ^= h >> 17;
  h *= uintptr_t{0xed5ad4bb};
  h ^= h >> 11;
  return buckets[h & (kBuckets - 1)];
}

std::atomic<ParkingLot::Backend>& BackendWord() {
#if defined(__linux__)
  static std::atomic<ParkingLot::Backend> backend{ParkingLot::Backend::kFutex};
#else
  static std::atomic<ParkingLot::Backend> backend{
      ParkingLot::Backend::kCondvar};
#endif
  return backend;
}

#if defined(__linux__)
static_assert(sizeof(std::atomic<uint32_t>) == sizeof(uint32_t) &&
                  std::atomic<uint32_t>::is_always_lock_free,
              "futex requires a plain 4-byte lock-free word");

// Returns true iff the thread blocked (EAGAIN = the kernel's atomic check
// saw the word already moved; EINTR/0 = it slept). Callers recheck either
// way.
bool FutexWait(const std::atomic<uint32_t>* word, uint32_t expected,
               const struct timespec* timeout = nullptr) {
  long rc = syscall(SYS_futex, reinterpret_cast<const uint32_t*>(word),
                    FUTEX_WAIT_PRIVATE, expected, timeout, nullptr, 0);
  return !(rc == -1 && errno == EAGAIN);
}

void FutexWake(const std::atomic<uint32_t>* word, int count) {
  syscall(SYS_futex, reinterpret_cast<const uint32_t*>(word),
          FUTEX_WAKE_PRIVATE, count, nullptr, nullptr, 0);
}
#endif

void CondvarWake(const std::atomic<uint32_t>& word) {
  Bucket& b = BucketFor(&word);
  // Taking (and releasing) the bucket mutex orders this wake after any
  // in-flight Park's recheck: a parker that saw the old word value is
  // already inside cv.wait and will receive the notify.
  { MutexLock guard(b.mu); }
  // Always notify_all, even for WakeOne: a bucket is shared by every word
  // that hashes into it, so a single notify could land on a waiter of a
  // *different* word, which re-parks and silently consumes the wake — a
  // lost wakeup for the intended thread. Waking the whole bucket turns
  // that into tolerated spurious wakes; WakeOne stays a genuine
  // single-thread wake only on the futex backend.
  b.cv.NotifyAll();
}

}  // namespace

bool ParkingLot::Park(const std::atomic<uint32_t>& word, uint32_t expected) {
  if (word.load(std::memory_order_acquire) != expected) {
    Counters().immediate_parks.Add(1);
    return false;
  }
#if defined(__linux__)
  if (backend() == Backend::kFutex) {
    bool blocked = FutexWait(&word, expected);
    if (blocked) {
      Counters().parks.Add(1);
    } else {
      Counters().immediate_parks.Add(1);
    }
    return blocked;
  }
#endif
  Bucket& b = BucketFor(&word);
  MutexLock guard(b.mu);
  if (word.load(std::memory_order_acquire) != expected) {
    Counters().immediate_parks.Add(1);
    return false;
  }
  Counters().parks.Add(1);
  // One shot, no predicate: collisions and stray notifies surface as
  // spurious returns, which the contract pushes to the caller's loop.
  b.cv.Wait(b.mu);
  return true;
}

bool ParkingLot::ParkFor(const std::atomic<uint32_t>& word, uint32_t expected,
                         uint64_t timeout_ns) {
  if (word.load(std::memory_order_acquire) != expected) {
    Counters().immediate_parks.Add(1);
    return false;
  }
#if defined(__linux__)
  if (backend() == Backend::kFutex) {
    struct timespec ts;  // FUTEX_WAIT takes a *relative* timeout
    ts.tv_sec = static_cast<time_t>(timeout_ns / 1000000000ull);
    ts.tv_nsec = static_cast<long>(timeout_ns % 1000000000ull);
    bool blocked = FutexWait(&word, expected, &ts);
    if (blocked) {
      Counters().parks.Add(1);
    } else {
      Counters().immediate_parks.Add(1);
    }
    return blocked;
  }
#endif
  Bucket& b = BucketFor(&word);
  MutexLock guard(b.mu);
  if (word.load(std::memory_order_acquire) != expected) {
    Counters().immediate_parks.Add(1);
    return false;
  }
  Counters().parks.Add(1);
  b.cv.WaitFor(b.mu, std::chrono::nanoseconds(timeout_ns));
  return true;
}

void ParkingLot::WakeAll(const std::atomic<uint32_t>& word) {
  Counters().wakes.Add(1);
#if defined(__linux__)
  if (backend() == Backend::kFutex) {
    FutexWake(&word, INT_MAX);
    return;
  }
#endif
  CondvarWake(word);
}

void ParkingLot::WakeOne(const std::atomic<uint32_t>& word) {
  Counters().wakes.Add(1);
#if defined(__linux__)
  if (backend() == Backend::kFutex) {
    FutexWake(&word, 1);
    return;
  }
#endif
  CondvarWake(word);
}

ParkingLot::Stats ParkingLot::stats() {
  Stats s;
  s.parks = Counters().parks.Read();
  s.immediate_parks = Counters().immediate_parks.Read();
  s.wakes = Counters().wakes.Read();
  return s;
}

ParkingLot::Backend ParkingLot::backend() {
  return BackendWord().load(std::memory_order_acquire);
}

void ParkingLot::SetBackendForTest(Backend b) {
  BackendWord().store(b, std::memory_order_release);
}

}  // namespace skeena
