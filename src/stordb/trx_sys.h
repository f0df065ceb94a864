#ifndef SKEENA_STORDB_TRX_SYS_H_
#define SKEENA_STORDB_TRX_SYS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/active_registry.h"
#include "common/thread_annotations.h"
#include "common/spin_latch.h"
#include "common/types.h"

namespace skeena::stordb {

/// Lifecycle of a stordb transaction as seen by visibility checks.
enum class TxnState : uint8_t {
  kActive = 0,
  kPreCommitted,  // serialisation_no assigned, outcome decided soon
  kCommitted,
  kAborted,
};

/// InnoDB-style read view: watermarks plus the list of transactions active
/// when the view was created (paper Section 5).
///
/// Cross-engine (Skeena-selected) views additionally carry `ser_limit`:
/// the CSR hands back a *commit* timestamp in this engine, and visibility
/// must follow commit order, not TID-assignment order — a transaction with
/// a small TID can commit late with a large serialisation_no and must stay
/// invisible to an adjusted view. The paper's MySQL integration adjusts the
/// high watermark (Section 5); we keep that adjustment as the fast reject
/// and make the commit-order check authoritative via the TrxSys state table.
struct ReadView {
  uint64_t high_water = 0;  // TIDs >= this started after view creation
  uint64_t low_water = 0;   // TIDs < this committed before view creation
  std::vector<uint64_t> active;  // sorted TIDs active at creation
  uint64_t ser_limit = kMaxTimestamp;  // cross-engine commit-order limit
  uint64_t own_tid = 0;

  bool is_cross_engine() const { return ser_limit != kMaxTimestamp; }

  /// Applies the Skeena high-watermark adjustment (paper Section 5): lower
  /// the high watermark to the selected snapshot; if it drops below the low
  /// watermark, clamp both.
  void AdjustForCrossEngine(uint64_t selected_ser) {
    ser_limit = selected_ser;
    if (selected_ser + 1 < high_water) high_water = selected_ser + 1;
    if (high_water < low_water) low_water = high_water;
  }

  bool ContainsActive(uint64_t tid) const {
    return std::binary_search(active.begin(), active.end(), tid);
  }
};

/// Central transaction bookkeeping, deliberately mirroring InnoDB's cost
/// profile. TIDs and serialisation numbers come from ONE shared counter
/// (`next_tid_`, atomic); two mutexes split the work the way MySQL 8.0's
/// trx_sys does:
///  * the trx-sys mutex (`mu_`) hands out TIDs and read views and does the
///    commit/abort bookkeeping of the active set — the expensive snapshot
///    acquisition that disqualifies stordb as the CSR anchor (paper
///    Section 4.3);
///  * the serialisation mutex (`ser_mu_`) only orders serialisation-number
///    draws with the publication of their kPreCommitted state, so a
///    committer inside the cross-engine commit window (pre-commit to CSR
///    check) never queues behind read views or TID assignment.
/// The two are never held together. LatestSerSnapshot() only covers sers
/// whose kPreCommitted state is already published; bounds that must also
/// cover TIDs read the counter itself (CounterBound()).
class TrxSys {
 public:
  TrxSys();

  /// Assigns a TID to a read-write transaction and adds it to the active
  /// set (under the trx-sys mutex, as in InnoDB). A TID is not a
  /// serialisation number: LatestSerSnapshot() does not move.
  uint64_t AssignTid();

  /// Pre-commit: draws the serialisation number from the shared counter and
  /// publishes state kPreCommitted (paper Section 5: InnoDB's
  /// serialisation_no denotes commit ordering and is what Skeena's commit
  /// check consumes). Runs under the serialisation mutex only; the state is
  /// published before LatestSerSnapshot() moves past the new ser.
  uint64_t AssignSerNo(uint64_t tid);

  /// Replica-side pre-commit: stamps `tid` with a primary-assigned
  /// serialisation number instead of drawing one, and advances the shared
  /// counter past `ser`. TIDs and sers come from ONE counter, so replaying
  /// a primary ser must also reserve the number locally — and because the
  /// (single) applier draws its TID before forcing the ser, replica row
  /// headers always satisfy tid <= ser, which is what keeps the cross-view
  /// high-watermark clamp (AdjustForCrossEngine) from rejecting a visible
  /// replicated row.
  void ForceSerNo(uint64_t tid, uint64_t ser);

  /// Post-commit: removes the TID from the active set and publishes
  /// kCommitted.
  void MarkCommitted(uint64_t tid);

  /// Rollback protocol: MarkAborting() publishes kAborted *before* undo is
  /// applied (cross-engine views stop trusting the row images immediately)
  /// but keeps the TID in the active set so native views created mid-
  /// rollback still treat it as active; FinishAbort() removes it once the
  /// old images are restored — mirroring InnoDB, where a transaction stays
  /// in the active list while rolling back.
  void MarkAborting(uint64_t tid);
  void FinishAbort(uint64_t tid);

  /// Creates a native read view (watermarks + active list) under the
  /// trx-sys mutex.
  ReadView CreateReadView(uint64_t own_tid);

  /// Latest commit-order snapshot for CSR's "use the latest e2 snapshot"
  /// fallback (Algorithm 1 line 6): every serialisation_no <= this value
  /// belongs to a transaction whose kPreCommitted (or later) state is
  /// already published; visibility waits out the pre-committed ones.
  uint64_t LatestSerSnapshot() const {
    return last_allocated_.load(std::memory_order_acquire);
  }

  /// The next number the shared TID/ser counter hands out: every TID and
  /// ser drawn before this call is below it. The conservative bound for
  /// horizons that must cover TIDs as well as sers (view pre-registration,
  /// abort retire bounds) — LatestSerSnapshot() covers sers only.
  uint64_t CounterBound() const {
    return next_tid_.load(std::memory_order_seq_cst);
  }

  /// State lookup for commit-order visibility. Unknown TIDs are treated as
  /// anciently committed (their state entries have been purged).
  struct StateSnapshot {
    TxnState state;
    uint64_t ser;
  };
  StateSnapshot GetState(uint64_t tid) const;

  /// Commit-order visibility for cross-engine views: waits out transactions
  /// that pre-committed with ser <= limit (their outcome is imminent —
  /// after Skeena's commit check passes, post-commit is unconditional).
  bool VisibleInCrossView(uint64_t tid, uint64_t ser_limit) const;

  /// Native InnoDB-style visibility.
  static bool VisibleInNativeView(const ReadView& view, uint64_t tid);

  /// Uniform entry point.
  bool Visible(const ReadView& view, uint64_t tid) const;

  /// Registry of view birth counters, for purging state entries and undo.
  ActiveSnapshotRegistry& view_registry() { return views_; }
  uint64_t MinActiveViewSer() {
    return views_.MinActive(LatestSerSnapshot());
  }

  /// Drops state entries of transactions resolved before `min_ser`.
  /// Committed entries are purged eagerly (a purged entry reads as
  /// "anciently committed", which is what min_ser guarantees); aborted
  /// entries get one extra purge round of grace so a reader holding a
  /// microseconds-stale row copy never mistakes an aborted writer for an
  /// ancient commit. Returns number purged.
  ///
  /// O(ripe), not a state-map scan: resolved transactions enter a
  /// ser-ordered side FIFO at MarkCommitted/FinishAbort and each round
  /// pops only the ripe prefix — the same discipline as the engine's undo
  /// queue (docs/RECLAMATION.md). An out-of-order smaller ser stuck behind
  /// a larger head just waits until the floor passes the head too:
  /// conservative, never unsafe.
  size_t PurgeStates(uint64_t min_ser);

  /// Fast-forwards the TID/serialisation counter after recovery.
  void AdvanceTo(uint64_t next);

 private:
  mutable Mutex mu_ SKEENA_ACQUIRED_BEFORE(resolved_mu_);  // the trx-sys mutex
  std::set<uint64_t> active_tids_ SKEENA_GUARDED_BY(mu_);
  // The shared TID/ser counter (tid 1 = genesis loader). TIDs are drawn
  // under mu_ (so read views see a consistent active set), sers under
  // ser_mu_; ForceSerNo/AdvanceTo only ever raise it.
  std::atomic<uint64_t> next_tid_{2};
  // Serialisation mutex: orders ser draws with their state publication and
  // the store to last_allocated_. Never held together with mu_.
  Mutex ser_mu_;
  // Largest published ser; written only under ser_mu_, read lock-free.
  std::atomic<uint64_t> last_allocated_{1};

  // Transaction state table, read on every stordb visibility check:
  // mutex-sharded so point lookups on different TIDs rarely contend.
  struct StateShard {
    Mutex mu;
    std::unordered_map<uint64_t, StateSnapshot> map SKEENA_GUARDED_BY(mu);
  };
  static constexpr size_t kStateShards = 64;
  StateShard& StateShardFor(uint64_t tid) const {
    return states_[std::hash<uint64_t>{}(tid) % kStateShards];
  }
  void PutState(uint64_t tid, StateSnapshot st);
  mutable std::vector<StateShard> states_;
  ActiveSnapshotRegistry views_;
  uint64_t prev_purge_min_ = 0;  // guarded by callers' purge serialization

  /// Side index for O(ripe) purge: (retire ser, tid) in enqueue order.
  /// Commits enqueue at post-commit, which follows their ser draw by one
  /// commit window, and aborts enqueue the counter read at FinishAbort, so
  /// the order is near-monotone in ser; a smaller ser behind a larger head
  /// only waits longer (PurgeStates). Split per outcome so the aborted
  /// entries' one-round grace never stalls the committed prefix.
  struct Resolved {
    uint64_t ser;
    uint64_t tid;
  };
  Mutex resolved_mu_;  // acquired after mu_ (never the reverse)
  std::deque<Resolved> resolved_commits_ SKEENA_GUARDED_BY(resolved_mu_);
  std::deque<Resolved> resolved_aborts_ SKEENA_GUARDED_BY(resolved_mu_);
};

}  // namespace skeena::stordb

#endif  // SKEENA_STORDB_TRX_SYS_H_
