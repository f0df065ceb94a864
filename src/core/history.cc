#include "core/history.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

namespace skeena {

// --------------------------------------------------------------- recorder

size_t HistoryRecorder::ThreadShardIndex() {
  static std::atomic<size_t> next{0};
  // relaxed-ok: shard choice only needs distinctness, not ordering.
  thread_local size_t idx =
      next.fetch_add(1, std::memory_order_relaxed) & (kShards - 1);
  return idx;
}

std::unique_ptr<TxnHistory> HistoryRecorder::StartTxn(GlobalTxnId gtid,
                                                      IsolationLevel iso,
                                                      bool skeena) {
  // Sessions are recording threads. The id is allocated from a
  // process-global counter, NOT per recorder: the thread_local cache
  // outlives any one recorder, so a per-recorder counter would hand a
  // freshly spawned thread an id that collides with an older thread's
  // cached id from an earlier recorder (fresh-threads-per-test pattern),
  // interleaving two program orders under one session.
  static std::atomic<uint64_t> next_session{1};
  thread_local uint64_t session = 0;
  thread_local uint64_t seq = 0;
  if (session == 0) {
    // relaxed-ok: session ids only need uniqueness.
    session = next_session.fetch_add(1, std::memory_order_relaxed);
  }
  auto txn = std::make_unique<TxnHistory>();
  txn->gtid = gtid;
  txn->session = session;
  txn->seq = ++seq;
  txn->iso = iso;
  txn->skeena = skeena;
  return txn;
}

void HistoryRecorder::Record(std::unique_ptr<TxnHistory> txn) {
  Shard& shard = shards_[ThreadShardIndex()].value;
  shard.latch.lock();
  shard.txns.push_back(std::move(txn));
  shard.latch.unlock();
}

std::vector<TxnHistory> HistoryRecorder::Fold() {
  std::vector<TxnHistory> out;
  for (size_t i = 0; i < kShards; ++i) {
    Shard& shard = shards_[i].value;
    shard.latch.lock();
    for (auto& t : shard.txns) out.push_back(std::move(*t));
    shard.txns.clear();
    shard.latch.unlock();
  }
  std::sort(out.begin(), out.end(),
            [](const TxnHistory& a, const TxnHistory& b) {
              return a.session != b.session ? a.session < b.session
                                            : a.seq < b.seq;
            });
  return out;
}

size_t HistoryRecorder::Size() const {
  size_t n = 0;
  for (size_t i = 0; i < kShards; ++i) {
    auto& shard = const_cast<Padded<Shard>&>(shards_[i]).value;
    shard.latch.lock();
    n += shard.txns.size();
    shard.latch.unlock();
  }
  return n;
}

// ---------------------------------------------------------------- checker

namespace {

/// A committed (or unacked) write to one (engine, table, key), positioned
/// at the writer's engine-local commit timestamp.
struct Version {
  Timestamp cts;
  const TxnHistory* txn;
  const HistOp* op;  // the txn's LAST write to the key (the one that sticks)
  /// Engine-local snapshot the writer held when it (first) wrote this key —
  /// the first-committer-wins check compares it against the predecessor.
  Timestamp write_snap;
};

struct KeyId {
  TableId table;
  Key key;
  bool operator==(const KeyId& o) const {
    return table == o.table && key == o.key;
  }
};

struct KeyIdHash {
  size_t operator()(const KeyId& k) const {
    uint64_t h = KeyPrefixU64(k.key) * 0x9e3779b97f4a7c15ull;
    return static_cast<size_t>(h ^ (h >> 32) ^ (k.table * 0x85ebca6bu));
  }
};

template <typename V>
using KeyMap = std::unordered_map<KeyId, V, KeyIdHash>;

bool IsRead(const HistOp& op) {
  return op.kind == HistOpKind::kGet || op.kind == HistOpKind::kScanRow;
}
bool IsWrite(const HistOp& op) {
  return op.kind == HistOpKind::kPut || op.kind == HistOpKind::kDelete;
}
bool Durable(const TxnHistory& t) {
  return t.outcome == TxnHistory::Outcome::kCommitted ||
         t.outcome == TxnHistory::Outcome::kUnacked;
}

std::string KeyStr(const KeyId& k) {
  std::ostringstream os;
  os << "t" << k.table << "/k" << KeyPrefixU64(k.key);
  return os.str();
}

class Checker {
 public:
  Checker(const std::vector<TxnHistory>& history, const SiCheckOptions& opts)
      : history_(history), opts_(opts) {}

  SiReport Run() {
    BuildIndexes();
    CheckReads();
    CheckLostUpdates();
    CheckCrossPairs();
    CheckCsrContainment();
    if (opts_.check_session_order) CheckSessionOrder();
    if (opts_.replica_session_floor != 0) CheckReplicaSessions();
    return std::move(report_);
  }

  SiReport RunRecoveredState(const FinalStateRows final_rows[kNumEngines]) {
    BuildIndexes();
    AuditFinalState(final_rows);
    return std::move(report_);
  }

 private:
  void Add(SiViolation::Kind kind, GlobalTxnId txn, GlobalTxnId other,
           std::string detail) {
    report_.violations.push_back(
        SiViolation{kind, txn, other, std::move(detail)});
  }

  void BuildIndexes() {
    report_.txns = history_.size();
    for (const TxnHistory& t : history_) {
      for (const HistOp& op : t.ops) {
        if (IsRead(op)) {
          ++report_.reads;
        } else {
          ++report_.writes;
        }
      }
      if (!Durable(t)) {
        // Aborted writes never become visible; index their values so a
        // read that observed one can be classified as a dirty read.
        for (const HistOp& op : t.ops) {
          if (IsWrite(op) && op.kind == HistOpKind::kPut) {
            aborted_values_[op.engine][KeyId{op.table, op.key}].emplace(
                op.value, t.gtid);
          }
        }
        continue;
      }
      for (int e = 0; e < kNumEngines; ++e) {
        if (!t.wrote[e] || t.commit[e] == 0) continue;
        // Last write per key wins; remember the snapshot of the first.
        KeyMap<Version> mine;
        for (const HistOp& op : t.ops) {
          if (!IsWrite(op) || op.engine != e) continue;
          KeyId kid{op.table, op.key};
          auto [it, fresh] = mine.emplace(
              kid, Version{t.commit[e], &t, &op, op.snapshot});
          if (!fresh) it->second.op = &op;
        }
        for (auto& [kid, v] : mine) versions_[e][kid].push_back(v);
      }
    }
    for (int e = 0; e < kNumEngines; ++e) {
      for (auto& [kid, vs] : versions_[e]) {
        std::sort(vs.begin(), vs.end(),
                  [](const Version& a, const Version& b) {
                    return a.cts < b.cts;
                  });
      }
    }
  }

  /// Latest version with cts <= snap (inclusive visibility in both
  /// engines); nullptr when the key is untouched at `snap`.
  const Version* VisibleAt(int e, const KeyId& kid, Timestamp snap) const {
    auto it = versions_[e].find(kid);
    if (it == versions_[e].end()) return nullptr;
    const auto& vs = it->second;
    auto ub = std::upper_bound(
        vs.begin(), vs.end(), snap,
        [](Timestamp s, const Version& v) { return s < v.cts; });
    if (ub == vs.begin()) return nullptr;
    return &*(ub - 1);
  }

  // Snapshot-read axiom: every read returns the latest version visible at
  // the operation's engine-local snapshot (after own-write override).
  void CheckReads() {
    for (const TxnHistory& t : history_) {
      // Own uncommitted writes override, per engine, in program order.
      KeyMap<const HistOp*> own[kNumEngines];
      for (const HistOp& op : t.ops) {
        KeyId kid{op.table, op.key};
        if (IsWrite(op)) {
          own[op.engine][kid] = &op;
          continue;
        }
        auto mine = own[op.engine].find(kid);
        if (mine != own[op.engine].end()) {
          const HistOp* w = mine->second;
          bool want_found = w->kind == HistOpKind::kPut;
          if (op.found != want_found ||
              (want_found && op.found && op.value != w->value)) {
            std::ostringstream os;
            os << 'T' << t.gtid << " read " << KeyStr(kid)
               << " after own write and saw ";
            if (op.found) {
              os << '"' << op.value << '"';
            } else {
              os << "<absent>";
            }
            Add(SiViolation::Kind::kReadYourWrites, t.gtid, 0, os.str());
          }
          continue;
        }
        // Uncoordinated "latest" snapshots (skeena off) are not a fixed
        // read point; the value-level axiom needs a pinned snapshot.
        if (op.snapshot == kInvalidTimestamp || op.snapshot == kMaxTimestamp) {
          continue;
        }
        CheckOneRead(t, op, kid);
      }
    }
  }

  void CheckOneRead(const TxnHistory& t, const HistOp& op, const KeyId& kid) {
    const Version* exp = VisibleAt(op.engine, kid, op.snapshot);
    bool want_found = exp != nullptr && exp->op->kind == HistOpKind::kPut;
    if (op.found == want_found &&
        (!want_found || op.value == exp->op->value)) {
      return;  // matches the visible version
    }
    std::ostringstream os;
    os << "T" << t.gtid << " read " << KeyStr(kid) << "@" << op.engine
       << " snap=" << op.snapshot << ": saw "
       << (op.found ? "\"" + op.value + "\"" : "<absent>") << ", expected "
       << (want_found ? "\"" + exp->op->value + "\" (T" +
                            std::to_string(exp->txn->gtid) + " cts=" +
                            std::to_string(exp->cts) + ")"
                      : "<absent>");
    // Classify by hunting for the writer that produced the observed value.
    if (op.found) {
      auto vit = versions_[op.engine].find(kid);
      if (vit != versions_[op.engine].end()) {
        for (const Version& v : vit->second) {
          if (v.op->kind != HistOpKind::kPut || v.op->value != op.value) {
            continue;
          }
          if (v.cts > op.snapshot) {
            Add(SiViolation::Kind::kFutureRead, t.gtid, v.txn->gtid,
                os.str() + " — value committed at cts=" +
                    std::to_string(v.cts) + " beyond the snapshot");
          } else {
            Add(SiViolation::Kind::kStaleRead, t.gtid, v.txn->gtid,
                os.str() + " — value is an older overwritten version");
          }
          return;
        }
      }
      auto ait = aborted_values_[op.engine].find(kid);
      if (ait != aborted_values_[op.engine].end()) {
        auto w = ait->second.find(op.value);
        if (w != ait->second.end()) {
          Add(SiViolation::Kind::kDirtyRead, t.gtid, w->second,
              os.str() + " — value written only by aborted T" +
                  std::to_string(w->second));
          return;
        }
      }
      Add(SiViolation::Kind::kDirtyRead, t.gtid, 0,
          os.str() + " — value matches no recorded write");
      return;
    }
    Add(SiViolation::Kind::kStaleRead, t.gtid, exp ? exp->txn->gtid : 0,
        os.str() + " — visible version missed");
  }

  // First-committer-wins: of two committed SI writers to the same key, the
  // later one's snapshot must cover the earlier one's commit (it saw what
  // it overwrote). Read-committed writers refresh per access and are
  // exempt (first-UPDATER-wins still aborts live conflicts, but a commit
  // between two refreshes is legal to overwrite).
  void CheckLostUpdates() {
    for (int e = 0; e < kNumEngines; ++e) {
      for (const auto& [kid, vs] : versions_[e]) {
        for (size_t i = 1; i < vs.size(); ++i) {
          const Version& prev = vs[i - 1];
          const Version& cur = vs[i];
          if (cur.txn->iso == IsolationLevel::kReadCommitted) continue;
          if (cur.write_snap == kInvalidTimestamp ||
              cur.write_snap == kMaxTimestamp) {
            continue;
          }
          if (cur.write_snap < prev.cts) {
            std::ostringstream os;
            os << 'T' << cur.txn->gtid << " overwrote " << KeyStr(kid) << '@'
               << e << " committed by T" << prev.txn->gtid
               << " (cts=" << prev.cts << ") it could not see (snap="
               << cur.write_snap << ')';
            Add(SiViolation::Kind::kLostUpdate, cur.txn->gtid,
                prev.txn->gtid, os.str());
          }
        }
      }
    }
  }

  // Cross-engine atomicity over snapshot pairs: a committed writer of BOTH
  // engines must be entirely inside or entirely outside every snapshot
  // pair any transaction ever held ((sa >= ca) <=> (so >= co)), and
  // committed pairs must be monotone across the two engines.
  void CheckCrossPairs() {
    const int a = opts_.anchor_index;
    const int o = 1 - a;
    struct Pair {
      Timestamp ca, co;
      const TxnHistory* txn;
    };
    std::vector<Pair> writers;
    // Other-engine-only writers also serialize through the CSR (their
    // anchor position is their anchor begin snapshot); they join the
    // monotonicity check but carry no cross-atomicity obligation.
    std::vector<Pair> other_only;
    for (const TxnHistory& t : history_) {
      if (!Durable(t) || !t.skeena) continue;
      if (t.wrote[a] && t.wrote[o] && t.commit[a] != 0 && t.commit[o] != 0) {
        writers.push_back(Pair{t.commit[a], t.commit[o], &t});
      } else if (!t.wrote[a] && t.wrote[o] && t.commit[o] != 0 &&
                 t.anchor_snap != kInvalidTimestamp) {
        other_only.push_back(Pair{t.anchor_snap, t.commit[o], &t});
      }
    }
    std::sort(writers.begin(), writers.end(),
              [](const Pair& x, const Pair& y) { return x.ca < y.ca; });
    report_.pairs = writers.size();

    // Monotonicity: strictly increasing co across strictly increasing
    // anchor positions, over cross writers and other-only writers alike.
    std::vector<Pair> ordered = writers;
    ordered.insert(ordered.end(), other_only.begin(), other_only.end());
    std::sort(ordered.begin(), ordered.end(),
              [](const Pair& x, const Pair& y) { return x.ca < y.ca; });
    for (size_t i = 1; i < ordered.size(); ++i) {
      const Pair& p = ordered[i - 1];
      const Pair& q = ordered[i];
      if (p.ca < q.ca && p.co >= q.co) {
        Add(SiViolation::Kind::kPairInversion, q.txn->gtid, p.txn->gtid,
            "commit pairs inverted: T" + std::to_string(p.txn->gtid) +
                " (" + std::to_string(p.ca) + "," + std::to_string(p.co) +
                ") vs T" + std::to_string(q.txn->gtid) + " (" +
                std::to_string(q.ca) + "," + std::to_string(q.co) + ")");
      }
    }

    if (writers.empty()) return;
    // prefix_max_co[i] = max co over writers[0..i]; suffix_min_co[i] = min
    // co over writers[i..]. A pair (sa, so) is torn iff some writer with
    // ca <= sa has co > so (half missing) or some writer with ca > sa has
    // co <= so (half visible).
    std::vector<Timestamp> prefix_max(writers.size());
    std::vector<Timestamp> suffix_min(writers.size());
    for (size_t i = 0; i < writers.size(); ++i) {
      prefix_max[i] =
          i == 0 ? writers[i].co : std::max(prefix_max[i - 1], writers[i].co);
    }
    for (size_t i = writers.size(); i-- > 0;) {
      suffix_min[i] = i + 1 == writers.size()
                          ? writers[i].co
                          : std::min(suffix_min[i + 1], writers[i].co);
    }
    for (const TxnHistory& t : history_) {
      if (!t.skeena) continue;
      for (const auto& [sa, so] : t.snap_pairs) {
        // Index of the first writer with ca > sa.
        size_t cut = static_cast<size_t>(
            std::upper_bound(writers.begin(), writers.end(), sa,
                             [](Timestamp s, const Pair& w) {
                               return s < w.ca;
                             }) -
            writers.begin());
        const Pair* bad = nullptr;
        if (cut > 0 && prefix_max[cut - 1] > so) {
          for (size_t i = 0; i < cut; ++i) {
            if (writers[i].co > so && writers[i].txn != &t) {
              bad = &writers[i];
              break;
            }
          }
          if (bad != nullptr) {
            Add(SiViolation::Kind::kCrossSkew, t.gtid, bad->txn->gtid,
                "pair (" + std::to_string(sa) + "," + std::to_string(so) +
                    ") of T" + std::to_string(t.gtid) + " sees T" +
                    std::to_string(bad->txn->gtid) + " (" +
                    std::to_string(bad->ca) + "," +
                    std::to_string(bad->co) +
                    ") in the anchor engine but not the other");
          }
        }
        if (cut < writers.size() && suffix_min[cut] <= so) {
          bad = nullptr;
          for (size_t i = cut; i < writers.size(); ++i) {
            if (writers[i].co <= so && writers[i].txn != &t) {
              bad = &writers[i];
              break;
            }
          }
          if (bad != nullptr) {
            Add(SiViolation::Kind::kCrossSkew, t.gtid, bad->txn->gtid,
                "pair (" + std::to_string(sa) + "," + std::to_string(so) +
                    ") of T" + std::to_string(t.gtid) + " sees T" +
                    std::to_string(bad->txn->gtid) + " (" +
                    std::to_string(bad->ca) + "," +
                    std::to_string(bad->co) +
                    ") in the other engine but not the anchor");
          }
        }
      }
    }
  }

  // Every acknowledged cross-engine commit must appear in the CSR's
  // published mappings ([vmin, vmax] at its anchor commit key), unless its
  // partition was recycled (key < floor).
  void CheckCsrContainment() {
    if (!opts_.have_csr_dump) return;
    const int a = opts_.anchor_index;
    const int o = 1 - a;
    for (const TxnHistory& t : history_) {
      if (t.outcome != TxnHistory::Outcome::kCommitted || !t.skeena) continue;
      if (!t.wrote[a] || !t.wrote[o]) continue;
      Timestamp ca = t.commit[a], co = t.commit[o];
      if (ca < opts_.csr_floor) continue;
      auto it = std::lower_bound(
          opts_.csr_mappings.begin(), opts_.csr_mappings.end(), ca,
          [](const SiCheckOptions::CsrMapping& m, Timestamp k) {
            return m.key < k;
          });
      if (it == opts_.csr_mappings.end() || it->key != ca ||
          co < it->vmin || co > it->vmax) {
        Add(SiViolation::Kind::kCsrMismatch, t.gtid, 0,
            "committed pair (" + std::to_string(ca) + "," +
                std::to_string(co) + ") of T" + std::to_string(t.gtid) +
                " not contained in the CSR's published mappings");
      }
    }
  }

  // Session order: a transaction begun after an earlier commit was
  // acknowledged on the same session must start at or past that commit's
  // anchor position.
  void CheckSessionOrder() {
    const int a = opts_.anchor_index;
    std::unordered_map<uint64_t, std::pair<Timestamp, GlobalTxnId>> last;
    for (const TxnHistory& t : history_) {  // sorted by (session, seq)
      // Replica sessions lag the primary by design; staleness relative to
      // primary commits is legal there (monotonicity is checked by
      // CheckReplicaSessions instead).
      if (opts_.replica_session_floor != 0 &&
          t.session >= opts_.replica_session_floor) {
        continue;
      }
      auto it = last.find(t.session);
      if (it != last.end() && t.skeena &&
          t.anchor_snap != kInvalidTimestamp &&
          t.anchor_snap < it->second.first) {
        Add(SiViolation::Kind::kSessionOrder, t.gtid, it->second.second,
            "T" + std::to_string(t.gtid) + " began at anchor snapshot " +
                std::to_string(t.anchor_snap) +
                " behind the acknowledged commit " +
                std::to_string(it->second.first) + " of T" +
                std::to_string(it->second.second) + " on the same session");
      }
      if (t.outcome == TxnHistory::Outcome::kCommitted && t.skeena &&
          t.wrote[a] && t.commit[a] != 0) {
        auto& slot = last[t.session];
        if (t.commit[a] > slot.first) slot = {t.commit[a], t.gtid};
      }
    }
  }

  // Replica sessions (id >= replica_session_floor) read through the
  // visibility gate. Their snapshots may trail the primary arbitrarily,
  // but the gate is monotone per session: a later read must never observe
  // a snapshot pair below an earlier one on either component.
  void CheckReplicaSessions() {
    std::unordered_map<uint64_t, std::pair<Timestamp, Timestamp>> last;
    for (const TxnHistory& t : history_) {  // sorted by (session, seq)
      if (t.session < opts_.replica_session_floor) continue;
      auto [it, fresh] = last.emplace(t.session, std::make_pair(Timestamp{0},
                                                                Timestamp{0}));
      (void)fresh;
      for (const auto& [sa, so] : t.snap_pairs) {
        if (sa < it->second.first || so < it->second.second) {
          Add(SiViolation::Kind::kGateRegression, t.gtid, 0,
              "replica session " + std::to_string(t.session) +
                  " snapshot pair regressed to (" + std::to_string(sa) + "," +
                  std::to_string(so) + ") from (" +
                  std::to_string(it->second.first) + "," +
                  std::to_string(it->second.second) + ") at T" +
                  std::to_string(t.gtid));
        }
        it->second.first = std::max(it->second.first, sa);
        it->second.second = std::max(it->second.second, so);
      }
    }
  }

  // ---- post-recovery audit ------------------------------------------

  void AuditFinalState(const FinalStateRows final_rows[kNumEngines]) {
    // Per engine/key: the recovered value must be producible by the
    // version list, and nothing at or below the last ACKED commit may be
    // lost (unacked suffix writers may legitimately survive or vanish).
    struct Survival {
      bool survived = false;
      bool lost = false;
    };
    std::unordered_map<GlobalTxnId, Survival> unacked[kNumEngines];

    for (int e = 0; e < kNumEngines; ++e) {
      KeyMap<bool> covered;
      for (const auto& [kid, vs] : versions_[e]) {
        covered[kid] = true;
        auto fit = final_rows[e].find({kid.table, kid.key});
        bool present = fit != final_rows[e].end();

        // The version that explains the final state: scan new→old for the
        // first version matching the observation.
        const Version* match = nullptr;
        for (size_t i = vs.size(); i-- > 0;) {
          const Version& v = vs[i];
          bool v_present = v.op->kind == HistOpKind::kPut;
          if (present == v_present &&
              (!present || fit->second == v.op->value)) {
            match = &v;
            break;
          }
        }
        // "Deleted by nobody": an absent key also matches the initial
        // (empty) state if no writer is required to have survived.
        const Version* last_acked = nullptr;
        for (size_t i = vs.size(); i-- > 0;) {
          if (vs[i].txn->outcome == TxnHistory::Outcome::kCommitted) {
            last_acked = &vs[i];
            break;
          }
        }
        if (match == nullptr && !(present || last_acked != nullptr)) {
          // Absent, and nothing acked ever wrote it: initial state.
          for (const Version& v : vs) NoteLost(unacked, e, v);
          continue;
        }
        if (match == nullptr) {
          if (!present && last_acked != nullptr) {
            // An acknowledged writer put the key there and nothing could
            // have removed it, yet recovery came up empty.
            Add(SiViolation::Kind::kDurabilityLost, last_acked->txn->gtid,
                0,
                "acknowledged write to " + KeyStr(kid) + "@" +
                    std::to_string(e) + " by T" +
                    std::to_string(last_acked->txn->gtid) +
                    " lost: key absent after recovery");
          } else {
            Add(SiViolation::Kind::kCorruptState, 0, 0,
                "recovered " + KeyStr(kid) + "@" + std::to_string(e) +
                    " = " +
                    (present ? "\"" + fit->second + "\"" : "<absent>") +
                    " matches no recorded committed write");
          }
          continue;
        }
        if (last_acked != nullptr && match->cts < last_acked->cts) {
          Add(SiViolation::Kind::kDurabilityLost, last_acked->txn->gtid,
              match->txn->gtid,
              "acknowledged write to " + KeyStr(kid) + "@" +
                  std::to_string(e) + " by T" +
                  std::to_string(last_acked->txn->gtid) + " (cts=" +
                  std::to_string(last_acked->cts) +
                  ") lost: recovered state matches older T" +
                  std::to_string(match->txn->gtid));
        }
        // Survival evidence for unacked writers: the matching version
        // survived; every version NEWER than the match was provably not
        // applied (nothing can roll forward past the match).
        if (match->txn->outcome == TxnHistory::Outcome::kUnacked) {
          unacked[e][match->txn->gtid].survived = true;
        }
        for (size_t i = vs.size(); i-- > 0;) {
          if (&vs[i] == match) break;
          NoteLost(unacked, e, vs[i]);
        }
      }
      // Keys present on disk that no committed transaction ever wrote.
      for (const auto& [tk, value] : final_rows[e]) {
        KeyId kid{tk.first, tk.second};
        if (covered.find(kid) == covered.end()) {
          Add(SiViolation::Kind::kCorruptState, 0, 0,
              "recovered " + KeyStr(kid) + "@" + std::to_string(e) +
                  " = \"" + value + "\" on a key no recorded transaction " +
                  "committed to");
        }
      }
    }

    // All-or-nothing recovery for unacked cross-engine transactions:
    // surviving in one engine while provably rolled back in the other is a
    // torn commit (Section 4.6).
    for (const TxnHistory& t : history_) {
      if (t.outcome != TxnHistory::Outcome::kUnacked) continue;
      if (!t.wrote[0] || !t.wrote[1]) continue;
      for (int e = 0; e < kNumEngines; ++e) {
        auto here = unacked[e].find(t.gtid);
        auto there = unacked[1 - e].find(t.gtid);
        if (here != unacked[e].end() && here->second.survived &&
            there != unacked[1 - e].end() && there->second.lost) {
          Add(SiViolation::Kind::kTornRecovery, t.gtid, 0,
              "unacked cross-engine T" + std::to_string(t.gtid) +
                  " recovered in engine " + std::to_string(e) +
                  " but rolled back in engine " + std::to_string(1 - e));
          break;
        }
      }
    }
  }

  template <typename M>
  static void NoteLost(M& unacked, int e, const Version& v) {
    if (v.txn->outcome == TxnHistory::Outcome::kUnacked) {
      unacked[e][v.txn->gtid].lost = true;
    }
  }

  const std::vector<TxnHistory>& history_;
  const SiCheckOptions& opts_;
  SiReport report_;

  KeyMap<std::vector<Version>> versions_[kNumEngines];
  KeyMap<std::unordered_map<std::string, GlobalTxnId>>
      aborted_values_[kNumEngines];
};

}  // namespace

const char* SiViolationKindName(SiViolation::Kind kind) {
  switch (kind) {
    case SiViolation::Kind::kDirtyRead: return "dirty-read";
    case SiViolation::Kind::kFutureRead: return "future-read";
    case SiViolation::Kind::kStaleRead: return "stale-read";
    case SiViolation::Kind::kReadYourWrites: return "read-your-writes";
    case SiViolation::Kind::kLostUpdate: return "lost-update";
    case SiViolation::Kind::kCrossSkew: return "cross-skew";
    case SiViolation::Kind::kPairInversion: return "pair-inversion";
    case SiViolation::Kind::kCsrMismatch: return "csr-mismatch";
    case SiViolation::Kind::kSessionOrder: return "session-order";
    case SiViolation::Kind::kGateRegression: return "gate-regression";
    case SiViolation::Kind::kDurabilityLost: return "durability-lost";
    case SiViolation::Kind::kTornRecovery: return "torn-recovery";
    case SiViolation::Kind::kCorruptState: return "corrupt-state";
  }
  return "unknown";
}

std::string SiReport::Summary(size_t max_violations) const {
  std::ostringstream os;
  os << txns << " txns, " << reads << " reads, " << writes << " writes, "
     << pairs << " cross pairs: ";
  if (violations.empty()) {
    os << "OK";
    return os.str();
  }
  os << violations.size() << " violation(s)";
  size_t n = std::min(max_violations, violations.size());
  for (size_t i = 0; i < n; ++i) {
    os << "\n  [" << SiViolationKindName(violations[i].kind) << "] "
       << violations[i].detail;
  }
  if (n < violations.size()) {
    os << "\n  ... " << (violations.size() - n) << " more";
  }
  return os.str();
}

SiReport CheckSnapshotIsolation(const std::vector<TxnHistory>& history,
                                const SiCheckOptions& opts) {
  return Checker(history, opts).Run();
}

SiReport CheckRecoveredState(const std::vector<TxnHistory>& history,
                             const FinalStateRows final_rows[kNumEngines],
                             const SiCheckOptions& opts) {
  return Checker(history, opts).RunRecoveredState(final_rows);
}

std::string DumpHistory(const std::vector<TxnHistory>& history) {
  std::ostringstream os;
  for (const TxnHistory& t : history) {
    os << "T" << t.gtid << " s" << t.session << "#" << t.seq << " iso="
       << static_cast<int>(t.iso) << (t.skeena ? "" : " raw");
    switch (t.outcome) {
      case TxnHistory::Outcome::kInFlight: os << " IN-FLIGHT"; break;
      case TxnHistory::Outcome::kCommitted: os << " committed"; break;
      case TxnHistory::Outcome::kAborted: os << " aborted"; break;
      case TxnHistory::Outcome::kUnacked: os << " UNACKED"; break;
    }
    os << " anchor=" << t.anchor_snap;
    for (int e = 0; e < kNumEngines; ++e) {
      if (!t.used[e]) continue;
      os << " e" << e << "[b=" << t.begin[e] << " c=" << t.commit[e]
         << (t.wrote[e] ? " w" : "")
         << (t.post_committed[e] ? " pc" : "") << "]";
    }
    for (const auto& [sa, so] : t.snap_pairs) {
      os << " pair=(" << sa << "," << so << ")";
    }
    os << "\n";
    for (const HistOp& op : t.ops) {
      os << "  ";
      switch (op.kind) {
        case HistOpKind::kGet: os << "G"; break;
        case HistOpKind::kPut: os << "P"; break;
        case HistOpKind::kDelete: os << "D"; break;
        case HistOpKind::kScanRow: os << "S"; break;
      }
      os << " e" << static_cast<int>(op.engine) << " t" << op.table << "/k"
         << KeyPrefixU64(op.key) << " snap=" << op.snapshot;
      if (IsRead(op)) {
        os << (op.found ? " -> \"" + op.value + "\"" : " -> <absent>");
      } else if (op.kind == HistOpKind::kPut) {
        os << " := \"" + op.value + "\"";
      }
      os << "\n";
    }
  }
  return os.str();
}

}  // namespace skeena
