#include "core/database.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/transaction.h"
#include "log/log_records.h"
#include "log/segmented_device.h"

namespace skeena {

namespace {

/// Hard stop for an on-disk path that cannot be opened. Running on a
/// MemDevice instead would acknowledge commits that vanish at restart.
[[noreturn]] void DieUnopenable(const std::string& path, const Status& st) {
  std::fprintf(stderr, "Database: cannot open %s: %s\n", path.c_str(),
               st.ToString().c_str());
  std::abort();
}

std::unique_ptr<StorageDevice> MakeDevice(const std::string& data_dir,
                                          const std::string& name,
                                          DeviceLatency latency) {
  if (data_dir.empty()) {
    return std::make_unique<MemDevice>(latency);
  }
  const std::string path = data_dir + "/" + name;
  auto dev = FileDevice::Open(path, latency);
  if (!dev.ok()) DieUnopenable(path, dev.status());
  return std::move(dev.value());
}

/// Builds an engine's WAL device: a segment directory named after the log
/// ("<data_dir>/mem.log/" holding wal.NNNNNNNN.seg files). A data dir from
/// the older single-file layout has a plain file at that path, so the
/// directory open fails and the file is reopened as a FileDevice.
std::unique_ptr<StorageDevice> MakeLogDevice(const DatabaseOptions& options,
                                             const std::string& name) {
  if (options.log_device_factory) return options.log_device_factory(name);
  if (options.data_dir.empty()) {
    return std::make_unique<MemDevice>(options.log_latency);
  }
  const std::string path = options.data_dir + "/" + name;
  SegmentedLogDevice::Options seg;
  seg.latency = options.log_latency;
  auto dev = SegmentedLogDevice::Open(path, seg);
  if (dev.ok()) return std::move(dev.value());
  auto legacy = FileDevice::Open(path, options.log_latency);
  if (!legacy.ok()) DieUnopenable(path, dev.status());
  return std::move(legacy.value());
}

}  // namespace

Database::Database(DatabaseOptions options)
    : options_(std::move(options)), csr_(options_.csr, &epoch_) {
  // The one place data_dir is created: every device and the catalog below
  // assume it exists.
  if (!options_.data_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.data_dir, ec);
    if (ec) DieUnopenable(options_.data_dir, Status::IOError(ec.message()));
  }

  // Table-space devices for stordb.
  if (!options_.data_dir.empty() && !options_.stor.device_factory) {
    std::string dir = options_.data_dir;
    DeviceLatency latency = options_.stor.data_latency;
    options_.stor.device_factory =
        [dir, latency](const std::string& name) {
          return MakeDevice(dir, "table_" + name + ".tbl", latency);
        };
  }

  // Replica hygiene: local read-only transactions must not log commit
  // records into the replica's own WAL — their gtids are drawn from the
  // replica's counter and would collide with replayed primary gtids.
  if (options_.replica) options_.mem.log_read_only_commits = false;

  // Both engines share the database-owned epoch domain, so one grace
  // period covers CSR partition lists, memdb versions and stordb undos.
  mem_owned_ = std::make_unique<MemEngineAdapter>(
      MakeLogDevice(options_, "mem.log"), options_.mem, &epoch_);
  stor_owned_ = std::make_unique<StorEngineAdapter>(
      MakeLogDevice(options_, "stor.log"), options_.stor, &epoch_);
  mem_ = mem_owned_.get();
  stor_ = stor_owned_.get();
  engines_[static_cast<int>(EngineKind::kMem)] = mem_;
  engines_[static_cast<int>(EngineKind::kStor)] = stor_;
  anchor_index_ = static_cast<int>(options_.anchor);

  // Engine-side GC pinning (the engine analogue of CSR recycling,
  // Section 4.4): a live transaction's anchor snapshot must keep BOTH
  // engines readable for a crossing it has not made yet. The anchor engine
  // is pinned by the oldest active anchor snapshot itself; the other
  // engine by the oldest snapshot the CSR could still select for such an
  // anchor (the predecessor mapping's value).
  auto min_anchor = [this] {
    return anchor_registry_.MinActive(
        engines_[anchor_index_]->LatestSnapshot());
  };
  auto min_other = [this, min_anchor] {
    // MinSelectableValue pins its own epoch for the list traversal; the
    // anchor-registry read needs no epoch protection.
    Timestamp v = csr_.MinSelectableValue(min_anchor());
    return v;  // kMaxTimestamp = unconstrained (fallback uses live clock)
  };
  bool mem_is_anchor = anchor_index_ == static_cast<int>(EngineKind::kMem);
  if (options_.replica) {
    // Replica readers never select through the CSR; their snapshot pair
    // comes from the visibility gate. The gate is the fallback for both
    // registry scans: it only ever advances, and every reader pre-registers
    // a sentinel before reading the pair, so neither floor can pass a pair
    // a reader is about to pin.
    auto replica_min_anchor = [this] {
      return anchor_registry_.MinActive(ReplicaSnapshotPair().first);
    };
    auto replica_min_other = [this] {
      return replica_other_registry_.MinActive(ReplicaSnapshotPair().second +
                                               1);
    };
    csr_.SetMinAnchorProvider(replica_min_anchor);
    if (mem_is_anchor) {
      mem_->engine()->SetGcHorizonProvider(replica_min_anchor);
      stor_->engine()->SetPurgeHorizonProvider(replica_min_other);
    } else {
      stor_->engine()->SetPurgeHorizonProvider([replica_min_anchor] {
        return replica_min_anchor() + 1;
      });
      mem_->engine()->SetGcHorizonProvider([this] {
        // replica_other_registry_ holds ser-style horizons (value + 1);
        // memdb wants plain snapshots.
        return replica_other_registry_.MinActive(
                   ReplicaSnapshotPair().second + 1) -
               1;
      });
    }
    pipeline_ = std::make_unique<CommitPipeline>(options_.pipeline,
                                                 engines_[0], engines_[1]);
    if (options_.record_history) {
      recorder_ = std::make_unique<HistoryRecorder>();
    }
    LoadCatalog();
    return;
  }
  csr_.SetMinAnchorProvider(min_anchor);
  // memdb registers plain snapshots; stordb registers view horizons
  // (ser_limit + 1) — hence the +1 on the stordb bounds.
  if (mem_is_anchor) {
    mem_->engine()->SetGcHorizonProvider(min_anchor);
    stor_->engine()->SetPurgeHorizonProvider([min_other] {
      Timestamp v = min_other();
      return v == kMaxTimestamp ? v : v + 1;
    });
  } else {
    stor_->engine()->SetPurgeHorizonProvider([min_anchor] {
      Timestamp v = min_anchor();
      return v == kMaxTimestamp ? v : v + 1;
    });
    mem_->engine()->SetGcHorizonProvider(min_other);
  }

  pipeline_ = std::make_unique<CommitPipeline>(options_.pipeline, engines_[0],
                                               engines_[1]);
  if (options_.record_history) {
    recorder_ = std::make_unique<HistoryRecorder>();
  }

  LoadCatalog();
}

Database::~Database() = default;

Result<TableHandle> Database::CreateTable(const std::string& name,
                                          EngineKind home,
                                          size_t max_value_size) {
  MutexLock guard(catalog_mu_);
  if (catalog_.count(name) != 0) {
    return Status::AlreadyExists("table exists: " + name);
  }
  TableHandle h;
  h.name = name;
  h.home = home;
  h.engine_index = static_cast<int>(home);
  h.local_id = engines_[h.engine_index]->CreateTable(name, max_value_size);
  catalog_[name] = h;
  PersistCatalogEntry(h, max_value_size);
  return h;
}

Result<TableHandle> Database::GetTable(const std::string& name) const {
  MutexLock guard(catalog_mu_);
  auto it = catalog_.find(name);
  if (it == catalog_.end()) {
    return Status::NotFound("no such table: " + name);
  }
  return it->second;
}

std::unique_ptr<Transaction> Database::Begin() {
  return Begin(options_.default_isolation);
}

std::unique_ptr<Transaction> Database::Begin(IsolationLevel iso) {
  return std::unique_ptr<Transaction>(new Transaction(this, iso));
}

void Database::PersistCatalogEntry(const TableHandle& h,
                                   size_t max_value_size) {
  if (options_.data_dir.empty()) return;
  std::ofstream out(options_.data_dir + "/catalog.txt", std::ios::app);
  out << h.name << ' ' << static_cast<int>(h.home) << ' ' << max_value_size
      << '\n';
}

void Database::LoadCatalog() {
  if (options_.data_dir.empty()) return;
  std::ifstream in(options_.data_dir + "/catalog.txt");
  if (!in.good()) return;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string name;
    int home = 0;
    size_t max_value = 0;
    if (!(ls >> name >> home >> max_value)) continue;
    TableHandle h;
    h.name = name;
    h.home = static_cast<EngineKind>(home);
    h.engine_index = home;
    h.local_id = engines_[home]->CreateTable(name, max_value);
    catalog_[name] = h;
  }
}

Status Database::Recover() {
  // Pair commit-begin / commit-end records across both logs: a cross-
  // engine transaction is durably committed only if its commit-end made it
  // to *both* logs; everything else is rolled back (its results were never
  // released to clients — they were still gated on the commit queue).
  // Paper Section 4.6.
  std::set<GlobalTxnId> cross_seen;
  std::set<GlobalTxnId> end_in[kNumEngines];
  for (int e = 0; e < kNumEngines; ++e) {
    const StorageDevice* dev = engines_[e]->LogDevice();
    if (dev == nullptr) continue;
    LogReader reader(dev);
    std::string raw;
    while (reader.Next(&raw)) {
      LogRecord rec;
      if (!LogRecord::Decode(raw, &rec)) break;  // torn tail
      if (rec.type == LogRecordType::kCommitBegin) {
        cross_seen.insert(rec.gtid);
      } else if (rec.type == LogRecordType::kCommitEnd) {
        cross_seen.insert(rec.gtid);
        end_in[e].insert(rec.gtid);
      }
      // relaxed-ok: single-threaded recovery; no concurrent Begin yet.
      next_gtid_.store(
          std::max(next_gtid_.load(std::memory_order_relaxed), rec.gtid + 1),
          std::memory_order_relaxed);
    }
  }
  std::set<GlobalTxnId> excluded;
  for (GlobalTxnId gtid : cross_seen) {
    if (end_in[0].count(gtid) == 0 || end_in[1].count(gtid) == 0) {
      excluded.insert(gtid);
    }
  }
  for (int e = 0; e < kNumEngines; ++e) {
    SKEENA_RETURN_NOT_OK(engines_[e]->Recover(excluded));
  }
  return Status::OK();
}

Database::Stats Database::stats() {
  Stats s;
  s.csr = csr_.stats();
  s.mem = mem_->engine()->stats();
  s.stor = stor_->engine()->stats();
  s.commits_completed = pipeline_->completed();
  return s;
}

}  // namespace skeena
