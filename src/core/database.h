#ifndef SKEENA_CORE_DATABASE_H_
#define SKEENA_CORE_DATABASE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/active_registry.h"
#include "common/epoch.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "core/adapters.h"
#include "core/commit_pipeline.h"
#include "core/csr.h"
#include "core/engine_iface.h"
#include "core/history.h"

namespace skeena {

class Transaction;

/// A table's catalog entry: its home engine and engine-local id
/// (applications declare the home engine in the schema; paper Section 3,
/// "Transparent Adoption").
struct TableHandle {
  std::string name;
  EngineKind home = EngineKind::kMem;
  int engine_index = 0;
  TableId local_id = 0;
};

struct DatabaseOptions {
  IsolationLevel default_isolation = IsolationLevel::kSnapshot;

  /// Master switch: with Skeena off, transactions drive sub-transactions
  /// directly with no snapshot coordination and independent commits — the
  /// paper's "MySQL default" baseline where all Section 2.3 anomalies are
  /// possible, and the single-engine baselines of Table 3.
  bool enable_skeena = true;

  /// Which engine anchors the CSR (paper Section 4.3). Defaults to the
  /// memory-optimized engine, where snapshot acquisition is one atomic
  /// load; configurable for the anchor-choice ablation.
  EngineKind anchor = EngineKind::kMem;

  SnapshotRegistry::Options csr;
  CommitPipeline::Options pipeline;
  memdb::MemEngine::Options mem;
  stordb::StorEngine::Options stor;

  /// Latency injected on both engines' log devices.
  DeviceLatency log_latency = DeviceLatency::Tmpfs();

  /// Test/bench hook: builds each engine's WAL device instead of the
  /// default (a SegmentedLogDevice directory under data_dir, or a
  /// MemDevice without one). Called with the log's name ("mem.log" /
  /// "stor.log").
  std::function<std::unique_ptr<StorageDevice>(const std::string& name)>
      log_device_factory;

  /// When set, logs / table spaces / catalog live in files under data_dir
  /// (survives restarts; enables crash-recovery flows). Otherwise all
  /// devices are in-memory. The constructor creates the directory, and
  /// aborts the process if it or any device under it cannot be opened: a
  /// database that silently ran in memory would acknowledge commits that
  /// vanish at restart.
  std::string data_dir;

  /// Verification hook: record every transaction's snapshots, commit
  /// serialisation points and read/write-sets into a per-thread history
  /// log for the black-box SI checker (core/history.h). Off by default;
  /// disabled cost is one null-pointer branch per operation.
  bool record_history = false;

  /// Replica mode (docs/REPLICATION.md): the database is populated only by
  /// the replication applier. User transactions are read-only (writes fail
  /// NotSupported) and take their snapshot pair from the replica's
  /// visibility gate (SetReplicaSnapshotProvider) instead of live anchor
  /// acquisition + CSR selection — the replayed CSR is never written to by
  /// readers, so it stays a faithful prefix of the primary's.
  bool replica = false;

  /// Test hook: called between the two engines' post-commits of a
  /// cross-engine transaction (anchor engine first). Lets tests freeze a
  /// commit inside the inter-engine window that the replica's visibility
  /// gate exists to mask.
  std::function<void(GlobalTxnId)> test_post_commit_hook;
};

/// The multi-engine database: a memory-optimized engine and a
/// storage-centric engine under one catalog, with Skeena coordinating
/// cross-engine transactions (paper Figure 4).
class Database {
 public:
  explicit Database(DatabaseOptions options = DatabaseOptions());
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Creates a table homed in `home`. `max_value_size` bounds row values
  /// (stordb rows are fixed-slot).
  Result<TableHandle> CreateTable(const std::string& name, EngineKind home,
                                  size_t max_value_size = 256);
  Result<TableHandle> GetTable(const std::string& name) const;

  std::unique_ptr<Transaction> Begin();
  std::unique_ptr<Transaction> Begin(IsolationLevel iso);

  /// Replays both engines' logs, rolling back cross-engine transactions
  /// that are not fully committed in *both* logs (paper Section 4.6). Call
  /// on a freshly (re)opened file-backed database; tables are re-created
  /// from the persisted catalog automatically at construction.
  Status Recover();

  // ------------------------------------------------------------- access
  EngineIface* engine(int index) { return engines_[index]; }
  EngineIface* engine(EngineKind kind) {
    return engines_[static_cast<int>(kind)];
  }
  MemEngineAdapter* mem() { return mem_; }
  StorEngineAdapter* stor() { return stor_; }
  int anchor_index() const { return anchor_index_; }
  bool skeena_enabled() const { return options_.enable_skeena; }
  IsolationLevel default_isolation() const {
    return options_.default_isolation;
  }

  SnapshotRegistry& csr() { return csr_; }
  ActiveSnapshotRegistry& anchor_registry() { return anchor_registry_; }
  CommitPipeline& pipeline() { return *pipeline_; }
  EpochManager& epoch() { return epoch_; }
  /// Null unless DatabaseOptions::record_history.
  HistoryRecorder* recorder() { return recorder_.get(); }

  GlobalTxnId NextGtid() {
    // relaxed-ok: gtids only need uniqueness; commit publication orders
    // everything a gtid ever labels.
    return next_gtid_.fetch_add(1, std::memory_order_relaxed);
  }

  // --------------------------------------------------------- replica mode
  bool replica() const { return options_.replica; }

  /// Installs the visibility-gate provider (the replication applier). The
  /// returned pair is (anchor-engine snapshot, other-engine snapshot),
  /// component-wise monotone over successive calls. Must be set before
  /// replica transactions run; until then readers see only genesis data.
  void SetReplicaSnapshotProvider(
      std::function<std::pair<Timestamp, Timestamp>()> provider) {
    replica_snapshot_provider_ = std::move(provider);
  }

  /// Current gate pair; (1, 1) — genesis only — before a provider is set.
  std::pair<Timestamp, Timestamp> ReplicaSnapshotPair() const {
    if (!replica_snapshot_provider_) return {Timestamp{1}, Timestamp{1}};
    return replica_snapshot_provider_();
  }

  /// Registry pinning the OTHER engine's purge floor under replica
  /// readers' gate snapshots (the anchor side reuses anchor_registry_).
  /// Registered values follow stordb's view-horizon convention: the
  /// other-engine gate component + 1.
  ActiveSnapshotRegistry& replica_other_registry() {
    return replica_other_registry_;
  }

  /// Number of live transactions that are still active — begun, not yet
  /// committed or aborted. Connection owners (the network server) assert
  /// this returns to zero after a disconnect or shutdown: an orphaned
  /// transaction must be aborted, never leaked.
  int64_t active_transactions() const {
    // relaxed-ok: diagnostic gauge; asserted only at quiescent points.
    return active_txns_.load(std::memory_order_relaxed);
  }

  struct Stats {
    SnapshotRegistry::Stats csr;
    memdb::MemEngine::Stats mem;
    stordb::StorEngine::Stats stor;
    uint64_t commits_completed;
  };
  Stats stats();

 private:
  friend class Transaction;  // maintains active_txns_ across its lifecycle

  void PersistCatalogEntry(const TableHandle& h, size_t max_value_size);
  void LoadCatalog();

  DatabaseOptions options_;

  // The database-wide reclamation domain: CSR partition lists, memdb
  // version chains and stordb undo batches all retire through this one
  // manager (docs/RECLAMATION.md). Declared first so it is destroyed last
  // — after the CSR and both engines have stopped retiring into it — and
  // then drains its limbo.
  EpochManager epoch_;

  std::unique_ptr<MemEngineAdapter> mem_owned_;
  std::unique_ptr<StorEngineAdapter> stor_owned_;
  MemEngineAdapter* mem_;
  StorEngineAdapter* stor_;
  EngineIface* engines_[kNumEngines];
  int anchor_index_;

  SnapshotRegistry csr_;
  ActiveSnapshotRegistry anchor_registry_;
  ActiveSnapshotRegistry replica_other_registry_;
  std::function<std::pair<Timestamp, Timestamp>()> replica_snapshot_provider_;
  std::unique_ptr<CommitPipeline> pipeline_;
  std::unique_ptr<HistoryRecorder> recorder_;

  std::atomic<GlobalTxnId> next_gtid_{1};
  std::atomic<int64_t> active_txns_{0};

  mutable Mutex catalog_mu_;
  std::unordered_map<std::string, TableHandle> catalog_
      SKEENA_GUARDED_BY(catalog_mu_);
};

}  // namespace skeena

#endif  // SKEENA_CORE_DATABASE_H_
