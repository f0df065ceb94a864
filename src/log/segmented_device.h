#ifndef SKEENA_LOG_SEGMENTED_DEVICE_H_
#define SKEENA_LOG_SEGMENTED_DEVICE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "log/storage_device.h"

namespace skeena {

/// Log device backed by a directory of preallocated fixed-size segment
/// files (`wal.00000000.seg`, `wal.00000001.seg`, ...), in the ERMIA
/// sm-log shape. The device exposes one contiguous byte space: offset
/// `o` lives in segment `o / segment_bytes` at file offset
/// `o % segment_bytes`, so a record may split across a segment edge and
/// `LogReader` iterates straight through it.
///
/// Why segments beat one grow-forever file for the raw-speed path:
///  * appends never extend a file (no size metadata churn per flush, and
///    fdatasync stays a pure data sync);
///  * preallocation happens once per ~8 MiB off the hot path;
///  * old segments become unlinkable units for future log archiving.
///
/// The unwritten preallocated tail reads as zeros, which the log framing
/// treats as end-of-log; `Size()` after reopen is therefore the physical
/// bound (all preallocated bytes) and `LogManager`'s tail scan + Truncate
/// re-establishes the logical end.
///
/// Writes are buffered pwrite calls, one per segment piece, and `Sync` is
/// one fdatasync per dirty segment. That is the only write path: a
/// kernel-ring backend won at most 4 of 10 alternating `ablation_commit`
/// pairs at any commit window and an unbuffered one was never enabled
/// (DESIGN.md, "Log write path"), so each segment is one read-write fd.
class SegmentedLogDevice : public StorageDevice {
 public:
  struct Options {
    uint64_t segment_bytes = 8 * 1024 * 1024;  // rounded up to 4 KiB
    DeviceLatency latency = DeviceLatency::Tmpfs();
  };

  /// Opens (creating if needed) the segment directory. Existing segments
  /// are picked up in index order; the set in use is the contiguous run
  /// from index 0 (a gap means later segments are orphans of an old
  /// truncate — they are removed).
  static Result<std::unique_ptr<SegmentedLogDevice>> Open(
      const std::string& dir);
  static Result<std::unique_ptr<SegmentedLogDevice>> Open(
      const std::string& dir, Options options);

  ~SegmentedLogDevice() override;

  Status Append(std::span<const uint8_t> data, uint64_t* offset) override;
  Status WriteAt(uint64_t offset, std::span<const uint8_t> data) override;
  Status ReadAt(uint64_t offset, std::span<uint8_t> out) const override;
  Status Sync() override;
  Status Truncate(uint64_t size) override;
  uint64_t Size() const override;
  uint64_t bytes_read() const override;
  uint64_t bytes_written() const override;

  const std::string& dir() const { return dir_; }
  uint64_t segment_bytes() const { return segment_bytes_; }
  uint64_t segment_count() const;

 private:
  struct Segment {
    int fd = -1;
    bool dirty = false;  // written since the last Sync
  };

  SegmentedLogDevice(std::string dir, Options options);

  Status EnsureSegmentsLocked(size_t count) SKEENA_REQUIRES(mu_);
  Status OpenSegmentLocked(size_t index, bool create) SKEENA_REQUIRES(mu_);
  Status WritePiecesLocked(uint64_t offset, std::span<const uint8_t> data)
      SKEENA_REQUIRES(mu_);
  Status PwritePieceLocked(Segment& seg, uint64_t file_off,
                           std::span<const uint8_t> data) SKEENA_REQUIRES(mu_);
  std::string SegmentPath(size_t index) const;

  const std::string dir_;
  Options options_;
  uint64_t segment_bytes_;

  mutable Mutex mu_;
  std::vector<Segment> segments_ SKEENA_GUARDED_BY(mu_);
  uint64_t logical_size_ SKEENA_GUARDED_BY(mu_) = 0;
  int dir_fd_ = -1;  // fsynced after segment create/unlink

  mutable uint64_t bytes_read_ SKEENA_GUARDED_BY(mu_) = 0;
  uint64_t bytes_written_ SKEENA_GUARDED_BY(mu_) = 0;
};

}  // namespace skeena

#endif  // SKEENA_LOG_SEGMENTED_DEVICE_H_
