#include "stordb/trx_sys.h"

#include <algorithm>

namespace skeena::stordb {

TrxSys::TrxSys() : states_(kStateShards) {
  // Genesis transaction: initial table loads are stamped tid 1 / ser 1.
  PutState(1, StateSnapshot{TxnState::kCommitted, 1});
  resolved_commits_.push_back(Resolved{1, 1});
}

uint64_t TrxSys::AssignTid() {
  MutexLock guard(mu_);
  uint64_t tid = next_tid_.fetch_add(1, std::memory_order_seq_cst);
  active_tids_.insert(tid);
  PutState(tid, StateSnapshot{TxnState::kActive, 0});
  return tid;
}

uint64_t TrxSys::AssignSerNo(uint64_t tid) {
  MutexLock guard(ser_mu_);
  uint64_t ser = next_tid_.fetch_add(1, std::memory_order_seq_cst);
  // State first, bound second: a cross view whose ser_limit comes from
  // LatestSerSnapshot() must find this writer pre-committed, never still
  // kActive (which reads as invisible and would skip a row its snapshot
  // covers). ser_mu_ keeps successive draws — and so the stores below —
  // in ser order.
  PutState(tid, StateSnapshot{TxnState::kPreCommitted, ser});
  last_allocated_.store(ser, std::memory_order_release);
  return ser;
}

void TrxSys::ForceSerNo(uint64_t tid, uint64_t ser) {
  MutexLock guard(ser_mu_);
  PutState(tid, StateSnapshot{TxnState::kPreCommitted, ser});
  AtomicFetchMax(next_tid_, ser + 1, std::memory_order_seq_cst);
  // relaxed-ok: ser_mu_ is held, so no concurrent writer; the release
  // store below is the publication edge for lock-free readers.
  if (ser > last_allocated_.load(std::memory_order_relaxed)) {
    last_allocated_.store(ser, std::memory_order_release);
  }
}

void TrxSys::MarkCommitted(uint64_t tid) {
  MutexLock guard(mu_);
  uint64_t ser = GetState(tid).ser;  // 0 when the entry is missing
  PutState(tid, StateSnapshot{TxnState::kCommitted, ser});
  active_tids_.erase(tid);
  if (ser != 0) {
    // Terminal state: enters the purge FIFO exactly once. A ser of 0
    // (commit without AssignSerNo) never becomes purgeable, matching the
    // scan-based predicate this index replaced.
    MutexLock rguard(resolved_mu_);
    resolved_commits_.push_back(Resolved{ser, tid});
  }
}

void TrxSys::MarkAborting(uint64_t tid) {
  MutexLock guard(mu_);
  PutState(tid, StateSnapshot{TxnState::kAborted, GetState(tid).ser});
  // The TID intentionally stays in active_tids_ until FinishAbort().
}

void TrxSys::FinishAbort(uint64_t tid) {
  MutexLock guard(mu_);
  active_tids_.erase(tid);
  // Re-stamp the aborted state with the CURRENT counter as its retire
  // bound. A reader that captured this tid from a row header before the
  // rollback may consult the state long after — and it may hold a snapshot
  // far NEWER than the transaction's pre-commit ser, so purging by that
  // ser would turn the aborted write into an implicitly-committed phantom.
  // Every such reader began before this point, so the counter is a bound
  // its registered view keeps the purge below. (The ser of an aborted
  // state is otherwise unused: visibility only looks at the state tag.)
  uint64_t bound = CounterBound();
  PutState(tid, StateSnapshot{TxnState::kAborted, bound});
  MutexLock rguard(resolved_mu_);
  resolved_aborts_.push_back(Resolved{bound, tid});
}

ReadView TrxSys::CreateReadView(uint64_t own_tid) {
  ReadView view;
  MutexLock guard(mu_);
  // One counter read: ser draws (under ser_mu_) may move it concurrently,
  // but every TID below it was assigned under mu_ and is either in
  // active_tids_ or resolved.
  view.high_water = next_tid_.load(std::memory_order_seq_cst);
  view.low_water =
      active_tids_.empty() ? view.high_water : *active_tids_.begin();
  view.active.assign(active_tids_.begin(), active_tids_.end());
  view.own_tid = own_tid;
  return view;
}

void TrxSys::PutState(uint64_t tid, StateSnapshot st) {
  StateShard& s = StateShardFor(tid);
  MutexLock guard(s.mu);
  s.map[tid] = st;
}

TrxSys::StateSnapshot TrxSys::GetState(uint64_t tid) const {
  StateShard& s = StateShardFor(tid);
  MutexLock guard(s.mu);
  auto it = s.map.find(tid);
  if (it == s.map.end()) {
    // Purged: resolved long before any live view.
    return StateSnapshot{TxnState::kCommitted, 0};
  }
  return it->second;
}

bool TrxSys::VisibleInCrossView(uint64_t tid, uint64_t ser_limit) const {
  while (true) {
    StateSnapshot st = GetState(tid);
    switch (st.state) {
      case TxnState::kCommitted:
        return st.ser <= ser_limit;
      case TxnState::kAborted:
        return false;
      case TxnState::kActive:
        return false;
      case TxnState::kPreCommitted:
        if (st.ser > ser_limit) return false;
        // A pre-committed transaction whose commit order falls inside our
        // snapshot will commit momentarily (the CSR mapping that produced
        // ser_limit is only installed once commit is unconditional); spin
        // until it resolves.
        CpuRelax();
        break;
    }
  }
}

bool TrxSys::VisibleInNativeView(const ReadView& view, uint64_t tid) {
  if (tid == view.own_tid) return true;
  if (tid < view.low_water) return true;
  if (tid >= view.high_water) return false;
  return !view.ContainsActive(tid);
}

bool TrxSys::Visible(const ReadView& view, uint64_t tid) const {
  if (tid == view.own_tid) return true;
  if (view.is_cross_engine()) {
    // Fast reject retained from the watermark adjustment.
    if (tid >= view.high_water) return false;
    return VisibleInCrossView(tid, view.ser_limit);
  }
  return VisibleInNativeView(view, tid);
}

size_t TrxSys::PurgeStates(uint64_t min_ser) {
  uint64_t aborted_limit = prev_purge_min_;
  prev_purge_min_ = min_ser;
  // Pop the ripe FIFO prefixes (committed below min_ser, aborted below the
  // previous round's min — the one-round grace), then erase those tids
  // from the state map: O(ripe) per round instead of an EraseIf scan of
  // everything retained.
  std::vector<uint64_t> ripe;
  {
    MutexLock guard(resolved_mu_);
    while (!resolved_commits_.empty() &&
           resolved_commits_.front().ser < min_ser) {
      ripe.push_back(resolved_commits_.front().tid);
      resolved_commits_.pop_front();
    }
    while (!resolved_aborts_.empty() &&
           resolved_aborts_.front().ser < aborted_limit) {
      ripe.push_back(resolved_aborts_.front().tid);
      resolved_aborts_.pop_front();
    }
  }
  size_t removed = 0;
  for (uint64_t tid : ripe) {
    StateShard& s = StateShardFor(tid);
    MutexLock guard(s.mu);
    removed += s.map.erase(tid);
  }
  return removed;
}

void TrxSys::AdvanceTo(uint64_t next) {
  MutexLock guard(ser_mu_);
  AtomicFetchMax(next_tid_, next, std::memory_order_seq_cst);
  // relaxed-ok: ser_mu_ is held, so no concurrent writer (see ForceSerNo).
  if (next > 1 && next - 1 > last_allocated_.load(std::memory_order_relaxed)) {
    last_allocated_.store(next - 1, std::memory_order_release);
  }
}

}  // namespace skeena::stordb
