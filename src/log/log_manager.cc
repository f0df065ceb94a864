#include "log/log_manager.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>

namespace skeena {

namespace {

constexpr size_t kMinCapacity = 64 * 1024;
constexpr size_t kMinBlock = 4 * 1024;
/// Upper bound on a single payload accepted by the reader; anything larger
/// in a length header is garbage (the ring caps real appends far below it).
constexpr uint32_t kMaxRecordBytes = 1u << 30;

uint64_t RoundUpPow2(uint64_t v) {
  uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void StoreMax(std::atomic<uint64_t>& target, uint64_t v) {
  uint64_t cur = target.load(std::memory_order_relaxed);
  while (cur < v &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

uint32_t LogFrameCheck(std::span<const uint8_t> payload) {
  // FNV-1a over the payload, seeded with a mix of the length so a frame
  // whose payload is a prefix of another's cannot share its check.
  uint32_t h =
      2166136261u ^ (static_cast<uint32_t>(payload.size()) * 2654435761u);
  for (uint8_t b : payload) {
    h ^= b;
    h *= 16777619u;
  }
  return h;
}

LogManager::LogManager(std::unique_ptr<StorageDevice> device)
    : LogManager(std::move(device), Options()) {}

LogManager::LogManager(std::unique_ptr<StorageDevice> device, Options options)
    : device_(std::move(device)), options_(options) {
  capacity_ =
      RoundUpPow2(std::max<uint64_t>(options_.buffer_bytes, kMinCapacity));
  block_bytes_ = RoundUpPow2(
      std::clamp<uint64_t>(options_.block_bytes, kMinBlock, capacity_ / 2));
  n_blocks_ = capacity_ / block_bytes_;
  max_append_ = capacity_ - block_bytes_;
  ring_ = std::make_unique<uint8_t[]>(capacity_);
  released_ = std::make_unique<BlockCount[]>(n_blocks_);
  window_us_.store(options_.flush_interval_us, std::memory_order_relaxed);

  const Lsn tail = RecoverTail();
  reserved_.store(tail, std::memory_order_relaxed);
  flushed_.store(tail, std::memory_order_relaxed);
  durable_lsn_.store(tail, std::memory_order_relaxed);

  flusher_ = std::thread([this] { FlusherLoop(); });
}

LogManager::~LogManager() {
  stop_.store(true, std::memory_order_release);
  {
    MutexLock guard(flusher_mu_);
    flusher_cv_.NotifyAll();
  }
  if (flusher_.joinable()) flusher_.join();
  // Final drain so nothing staged is lost on clean shutdown. A device that
  // is still failing keeps its bytes in the ring, which dies with us — the
  // same contract the old staging vector had.
  Flush();
}

Lsn LogManager::RecoverTail() {
  const uint64_t size = device_->Size();
  if (size == 0) return 0;
  LogReader reader(device_.get());
  std::string record;
  while (reader.Next(&record)) {
  }
  const Lsn end = reader.offset();
  if (end < size) {
    // Torn or garbage tail from a crash mid-flush: cut it off so resumed
    // appends land at `end` on a clean device. A device that cannot
    // truncate (a test fake) is still correct: the flusher writes by
    // explicit offset, so the stale bytes are overwritten in place.
    device_->Truncate(end);
  }
  return end;
}

void LogManager::CopyIntoRing(Lsn lsn, const uint8_t* src, size_t n) {
  const uint64_t off = lsn & (capacity_ - 1);
  const size_t first = std::min<uint64_t>(n, capacity_ - off);
  std::memcpy(ring_.get() + off, src, first);
  if (first < n) std::memcpy(ring_.get(), src + first, n - first);
}

void LogManager::WaitForRingSpace(Lsn end) {
  // The claimed range may overwrite ring bytes only after every byte that
  // previously lived there is on the device. The bound is block-aligned so
  // each ring block's release count covers exactly one reservation window
  // at a time (no wrap mixing).
  auto have_space = [&] {
    const Lsn f = flushed_.load(std::memory_order_acquire);
    return end <= BlockFloor(f) + capacity_;
  };
  space_waits_.Add(1);
  while (true) {
    if (SpinUntil(have_space)) return;
    const uint32_t seq = space_seq_.load(std::memory_order_acquire);
    if (have_space()) return;
    space_waiters_.fetch_add(1, std::memory_order_seq_cst);
    if (!have_space()) {
      ParkingLot::Park(space_seq_, seq);
    }
    space_waiters_.fetch_sub(1, std::memory_order_relaxed);
  }
}

Lsn LogManager::Append(std::span<const uint8_t> record) {
  assert(!record.empty() && "empty log records are not appendable");
  const uint64_t total = kLogFrameHeaderSize + record.size();
  assert(total <= max_append_ && "record exceeds the reservation ring");

  // 1. Claim [start, end) with a single fetch_add — the only cross-thread
  //    ordering point on the fast path.
  const Lsn start = reserved_.fetch_add(total, std::memory_order_relaxed);
  const Lsn end = start + total;
  const Lsn flushed_before = flushed_.load(std::memory_order_acquire);
  if (end > BlockFloor(flushed_before) + capacity_) {
    WaitForRingSpace(end);
  }

  // 2. Copy the frame into the claimed ring bytes.
  uint8_t header[kLogFrameHeaderSize];
  const uint32_t len = static_cast<uint32_t>(record.size());
  const uint32_t check = LogFrameCheck(record);
  std::memcpy(header, &len, sizeof(len));
  std::memcpy(header + sizeof(len), &check, sizeof(check));
  CopyIntoRing(start, header, kLogFrameHeaderSize);
  CopyIntoRing(start + kLogFrameHeaderSize, record.data(), record.size());

  // 3. Publish: bump the release count of every block the frame touches.
  //    The release order pairs with the flusher's acquire read and carries
  //    the copied bytes with it.
  Lsn pos = start;
  while (pos < end) {
    const Lsn span_end = std::min(end, BlockFloor(pos) + block_bytes_);
    released_[BlockIndex(pos)].released.fetch_add(span_end - pos,
                                                  std::memory_order_release);
    pos = span_end;
  }

  appends_.Add(1);
  append_bytes_.Add(total);

  // Wake the flusher only on the empty -> non-empty edge and the watermark
  // crossing; every other append in a batch stays mutex- and syscall-free.
  if (options_.auto_flush) {
    const uint64_t staged_before = start - flushed_before;
    const uint64_t staged_after = end - flushed_before;
    if (staged_before == 0 ||
        (staged_before < options_.flush_watermark &&
         staged_after >= options_.flush_watermark)) {
      MutexLock guard(flusher_mu_);
      flusher_cv_.NotifyOne();
    }
  }
  return end;
}

void LogManager::SetDurableObserver(std::function<void(Lsn)> observer) {
  MutexLock guard(flush_mu_);
  durable_observer_ = std::move(observer);
}

Status LogManager::FlushPass() {
  MutexLock guard(flush_mu_);
  const Lsn from = flushed_.load(std::memory_order_relaxed);
  staged_at_flush_total_.fetch_add(
      reserved_.load(std::memory_order_acquire) - from,
      std::memory_order_relaxed);

  // Find the completed prefix. Per block: read its release count *before*
  // the reservation word. The count only reaches the block's reserved span
  // via release-adds that happen-after the corresponding reservations, so
  // every byte it accounts for lies inside the R read next — `count ==
  // span` therefore proves all of [p, min(block_end, R)) is fully copied,
  // and the acquire on the count makes those copies visible here.
  //
  // The walk is capped at one ring lap: at `BlockFloor(from) + capacity`
  // the next block index wraps onto the block the walk started in, whose
  // count still holds THIS lap's releases (they are only retired after the
  // write below). Without the cap a completely full, fully released ring
  // would read that stale count as the next lap's and ship bytes that
  // space-parked appenders have claimed but not yet copied. The cap loses
  // nothing: flushed_ stays `from` for the whole pass, so no appender may
  // copy at or beyond the cap until a later pass.
  const Lsn lap_end = BlockFloor(from) + capacity_;
  Lsn prefix = from;
  while (prefix < lap_end) {
    const uint64_t avail =
        released_[BlockIndex(prefix)].released.load(std::memory_order_acquire);
    const Lsn reserved = reserved_.load(std::memory_order_acquire);
    if (reserved <= prefix) break;
    const Lsn block_end = BlockFloor(prefix) + block_bytes_;
    const Lsn span_end = std::min(block_end, reserved);
    if (avail < span_end - prefix) break;  // a copy in this block is in flight
    prefix = span_end;
    if (span_end < block_end) break;  // caught up with the reservations
  }

  if (prefix > from) {
    const uint64_t off = from & (capacity_ - 1);
    const uint64_t len = prefix - from;
    const uint64_t first = std::min<uint64_t>(len, capacity_ - off);
    // Write by explicit offset so the retry after a failed flush is
    // idempotent: no duplicate bytes, durability simply trails.
    SKEENA_RETURN_NOT_OK(
        device_->WriteAt(from, std::span(ring_.get() + off, first)));
    if (first < len) {
      SKEENA_RETURN_NOT_OK(
          device_->WriteAt(from + first, std::span(ring_.get(), len - first)));
    }

    // Consume: retire the shipped bytes from their block counts *before*
    // publishing flushed_, so a recycled block starts its next window at
    // zero. Appenders only overwrite these ring bytes after acquiring the
    // new flushed_, which orders our reads before their writes.
    Lsn pos = from;
    while (pos < prefix) {
      const Lsn span_end = std::min(prefix, BlockFloor(pos) + block_bytes_);
      released_[BlockIndex(pos)].released.fetch_sub(span_end - pos,
                                                    std::memory_order_relaxed);
      pos = span_end;
    }
    flushed_.store(prefix, std::memory_order_release);
    flushed_bytes_.fetch_add(len, std::memory_order_relaxed);
    StoreMax(max_batch_bytes_, len);

    // One eventcount bump + at most one batched unpark for ring-space
    // waiters, mirroring the durable protocol below.
    space_seq_.fetch_add(1, std::memory_order_seq_cst);
    if (space_waiters_.load(std::memory_order_seq_cst) > 0) {
      ParkingLot::WakeAll(space_seq_);
    }
  }

  // Advance durability to everything shipped — including bytes written by
  // an earlier pass whose sync failed (retry path: nothing newly staged,
  // but durable_lsn_ still trails flushed_).
  const Lsn shipped = flushed_.load(std::memory_order_relaxed);
  if (durable_lsn_.load(std::memory_order_relaxed) < shipped) {
    SKEENA_RETURN_NOT_OK(device_->Sync());
    durable_lsn_.store(shipped, std::memory_order_release);

    const uint64_t now = SteadyNowNs();
    if (last_flush_ns_ != 0) {
      flush_gap_ns_total_.fetch_add(now - last_flush_ns_,
                                    std::memory_order_relaxed);
    }
    last_flush_ns_ = now;
    flushes_.fetch_add(1, std::memory_order_relaxed);

    // Publish the advance: bump the eventcount, then one batched unpark
    // for however many waiters parked — no syscall at all when none did.
    durable_seq_.fetch_add(1, std::memory_order_seq_cst);
    if (durable_waiters_.load(std::memory_order_seq_cst) > 0) {
      ParkingLot::WakeAll(durable_seq_);
    }

    if (durable_observer_) durable_observer_(shipped);
  }
  return Status::OK();
}

Status LogManager::Flush() {
  const Lsn target = reserved_.load(std::memory_order_acquire);
  while (durable_lsn_.load(std::memory_order_acquire) < target) {
    SKEENA_RETURN_NOT_OK(FlushPass());
    // Durability still trailing the target means an appender that reserved
    // before our snapshot is mid-copy; it publishes in bounded time.
    if (durable_lsn_.load(std::memory_order_acquire) < target) {
      CpuRelax();
    }
  }
  return Status::OK();
}

void LogManager::WaitDurable(Lsn lsn) {
  if (DurableLsn() >= lsn) return;
  if (SpinUntil([&] { return DurableLsn() >= lsn; })) return;
  while (true) {
    // Futex protocol: read the sequence, recheck the predicate, park only
    // while the sequence is unchanged. A flusher that advances durability
    // between the recheck and the park bumps the word first, so the park
    // returns immediately instead of missing the wake.
    const uint32_t seq = durable_seq_.load(std::memory_order_acquire);
    if (DurableLsn() >= lsn) return;
    durable_waiters_.fetch_add(1, std::memory_order_seq_cst);
    if (DurableLsn() < lsn) {
      ParkingLot::Park(durable_seq_, seq);
    }
    durable_waiters_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void LogManager::FlusherLoop() {
  uint64_t window = options_.flush_interval_us;
  while (true) {
    // Idle phase: sleep until bytes arrive (or stop). The timed backstop
    // bounds shutdown latency and collapses the adaptive window when the
    // log goes quiet.
    {
      MutexLock lock(flusher_mu_);
      const bool woke =
          flusher_cv_.WaitFor(flusher_mu_, std::chrono::milliseconds(5), [&] {
            return stop_.load(std::memory_order_acquire) ||
                   (options_.auto_flush && HasStaged());
          });
      if (!woke) {
        if (options_.adaptive_flush && window != options_.flush_interval_us) {
          window = options_.flush_interval_us;
          window_shrinks_.fetch_add(1, std::memory_order_relaxed);
          window_us_.store(window, std::memory_order_relaxed);
        }
        continue;
      }
    }
    if (stop_.load(std::memory_order_acquire)) return;

    // Batch phase: let the group-commit window fill, leaving early if the
    // watermark trips.
    {
      MutexLock lock(flusher_mu_);
      flusher_cv_.WaitFor(flusher_mu_, std::chrono::microseconds(window), [&] {
        return stop_.load(std::memory_order_acquire) ||
               StagedBytes() >= options_.flush_watermark;
      });
    }
    if (stop_.load(std::memory_order_acquire)) return;

    FlushPass();  // device errors: bytes stay staged and are retried

    if (options_.adaptive_flush) {
      // Bytes already waiting again means arrivals outpace the window:
      // widen it toward the latency budget so each sync amortizes over a
      // bigger batch. An empty log after the flush means the burst passed:
      // collapse so the next stray commit isn't held for the long window.
      if (HasStaged() && window < options_.max_flush_interval_us) {
        window = std::min(window * 2, options_.max_flush_interval_us);
        window_grows_.fetch_add(1, std::memory_order_relaxed);
        window_us_.store(window, std::memory_order_relaxed);
      } else if (!HasStaged() && window != options_.flush_interval_us) {
        window = options_.flush_interval_us;
        window_shrinks_.fetch_add(1, std::memory_order_relaxed);
        window_us_.store(window, std::memory_order_relaxed);
      }
    }
  }
}

LogManager::Stats LogManager::stats() const {
  Stats s;
  s.appends = appends_.Read();
  s.append_bytes = append_bytes_.Read();
  s.flushes = flushes_.load(std::memory_order_relaxed);
  s.flushed_bytes = flushed_bytes_.load(std::memory_order_relaxed);
  s.max_batch_bytes = max_batch_bytes_.load(std::memory_order_relaxed);
  s.space_waits = space_waits_.Read();
  s.window_us = window_us_.load(std::memory_order_relaxed);
  s.window_grows = window_grows_.load(std::memory_order_relaxed);
  s.window_shrinks = window_shrinks_.load(std::memory_order_relaxed);
  s.flush_gap_ns_total = flush_gap_ns_total_.load(std::memory_order_relaxed);
  s.staged_at_flush_total =
      staged_at_flush_total_.load(std::memory_order_relaxed);
  return s;
}

bool LogReader::Next(std::string* record) {
  const uint64_t size = device_->Size();
  if (offset_ + kLogFrameHeaderSize > size) return false;
  uint8_t header[kLogFrameHeaderSize];
  if (!device_->ReadAt(offset_, std::span<uint8_t>(header, sizeof(header)))
           .ok()) {
    return false;
  }
  uint32_t len = 0;
  uint32_t check = 0;
  std::memcpy(&len, header, sizeof(len));
  std::memcpy(&check, header + sizeof(len), sizeof(check));
  // len == 0: the zero-filled unwritten tail of a preallocated segment.
  // Oversized len: garbage (a torn header). Both read as end-of-log.
  if (len == 0 || len > kMaxRecordBytes) return false;
  if (offset_ + kLogFrameHeaderSize + len > size) return false;  // torn tail
  record->resize(len);
  if (!device_
           ->ReadAt(offset_ + kLogFrameHeaderSize,
                    std::span<uint8_t>(
                        reinterpret_cast<uint8_t*>(record->data()), len))
           .ok()) {
    return false;
  }
  if (LogFrameCheck(std::span<const uint8_t>(
          reinterpret_cast<const uint8_t*>(record->data()), len)) != check) {
    return false;  // torn or stale frame
  }
  offset_ += kLogFrameHeaderSize + len;
  return true;
}

}  // namespace skeena
