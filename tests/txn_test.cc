#include "core/transaction.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "core/skeena.h"
#include "support/db_fixtures.h"

namespace skeena {
namespace {

using test::FastOptions;

class TxnTest : public ::testing::Test {
 protected:
  TxnTest() : db_(test::FastOptions()) {
    mem_table_ = *db_.CreateTable("mem_t", EngineKind::kMem);
    stor_table_ = *db_.CreateTable("stor_t", EngineKind::kStor);
  }

  Database db_;
  TableHandle mem_table_;
  TableHandle stor_table_;
};

TEST_F(TxnTest, CatalogRoutesTables) {
  auto h = db_.GetTable("mem_t");
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->home, EngineKind::kMem);
  auto h2 = db_.GetTable("stor_t");
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(h2->home, EngineKind::kStor);
  EXPECT_TRUE(db_.GetTable("nope").status().IsNotFound());
  EXPECT_TRUE(db_.CreateTable("mem_t", EngineKind::kMem).status().code() ==
              StatusCode::kAlreadyExists);
}

TEST_F(TxnTest, SingleEngineMemCommit) {
  auto txn = db_.Begin();
  ASSERT_TRUE(txn->Put(mem_table_, MakeKey(1), "v").ok());
  EXPECT_FALSE(txn->is_cross_engine());
  ASSERT_TRUE(txn->Commit().ok());

  auto reader = db_.Begin();
  std::string v;
  ASSERT_TRUE(reader->Get(mem_table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "v");
}

TEST_F(TxnTest, SingleEngineStorCommit) {
  auto txn = db_.Begin();
  ASSERT_TRUE(txn->Put(stor_table_, MakeKey(1), "v").ok());
  ASSERT_TRUE(txn->Commit().ok());
  auto reader = db_.Begin();
  std::string v;
  ASSERT_TRUE(reader->Get(stor_table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "v");
}

TEST_F(TxnTest, CrossEngineCommitVisibleEverywhere) {
  auto txn = db_.Begin();
  ASSERT_TRUE(txn->Put(mem_table_, MakeKey(1), "m").ok());
  ASSERT_TRUE(txn->Put(stor_table_, MakeKey(1), "s").ok());
  EXPECT_TRUE(txn->is_cross_engine());
  ASSERT_TRUE(txn->Commit().ok());

  auto reader = db_.Begin();
  std::string v;
  ASSERT_TRUE(reader->Get(mem_table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "m");
  ASSERT_TRUE(reader->Get(stor_table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "s");
}

TEST_F(TxnTest, AbortRollsBackBothEngines) {
  {
    auto setup = db_.Begin();
    ASSERT_TRUE(setup->Put(mem_table_, MakeKey(1), "m0").ok());
    ASSERT_TRUE(setup->Put(stor_table_, MakeKey(1), "s0").ok());
    ASSERT_TRUE(setup->Commit().ok());
  }
  auto txn = db_.Begin();
  ASSERT_TRUE(txn->Put(mem_table_, MakeKey(1), "m1").ok());
  ASSERT_TRUE(txn->Put(stor_table_, MakeKey(1), "s1").ok());
  txn->Abort();

  auto reader = db_.Begin();
  std::string v;
  ASSERT_TRUE(reader->Get(mem_table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "m0");
  ASSERT_TRUE(reader->Get(stor_table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "s0");
}

TEST_F(TxnTest, DestructorAbortsActiveTransaction) {
  {
    auto txn = db_.Begin();
    ASSERT_TRUE(txn->Put(mem_table_, MakeKey(9), "leak").ok());
    // dropped without Commit()
  }
  auto reader = db_.Begin();
  std::string v;
  EXPECT_TRUE(reader->Get(mem_table_, MakeKey(9), &v).IsNotFound());
}

TEST_F(TxnTest, CommitTwiceRejected) {
  auto txn = db_.Begin();
  ASSERT_TRUE(txn->Put(mem_table_, MakeKey(1), "v").ok());
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_FALSE(txn->Commit().ok());
  EXPECT_FALSE(txn->Put(mem_table_, MakeKey(2), "w").ok());
}

TEST_F(TxnTest, EmptyTransactionCommits) {
  auto txn = db_.Begin();
  EXPECT_TRUE(txn->Commit().ok());
}

TEST_F(TxnTest, EngineConflictAbortsWholeCrossTxn) {
  {
    auto setup = db_.Begin();
    ASSERT_TRUE(setup->Put(mem_table_, MakeKey(1), "base").ok());
    ASSERT_TRUE(setup->Put(stor_table_, MakeKey(1), "base").ok());
    ASSERT_TRUE(setup->Commit().ok());
  }
  auto t1 = db_.Begin();
  std::string v;
  ASSERT_TRUE(t1->Get(mem_table_, MakeKey(1), &v).ok());  // pin snapshot
  ASSERT_TRUE(t1->Put(stor_table_, MakeKey(1), "t1-stor").ok());

  {  // interloper bumps the mem key
    auto t2 = db_.Begin();
    ASSERT_TRUE(t2->Put(mem_table_, MakeKey(1), "newer").ok());
    ASSERT_TRUE(t2->Commit().ok());
  }

  // t1's mem write now conflicts; the whole cross-engine txn must die and
  // leave the stor side untouched.
  Status s = t1->Put(mem_table_, MakeKey(1), "t1-mem");
  ASSERT_TRUE(s.IsAnyAbort());
  auto reader = db_.Begin();
  ASSERT_TRUE(reader->Get(stor_table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "base") << "stor sub-transaction must have been rolled back";
}

TEST_F(TxnTest, SnapshotIsolationAcrossEngines) {
  {
    auto setup = db_.Begin();
    ASSERT_TRUE(setup->Put(mem_table_, MakeKey(1), "m1").ok());
    ASSERT_TRUE(setup->Put(stor_table_, MakeKey(1), "s1").ok());
    ASSERT_TRUE(setup->Commit().ok());
  }
  auto reader = db_.Begin(IsolationLevel::kSnapshot);
  std::string v;
  ASSERT_TRUE(reader->Get(mem_table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "m1");

  {  // concurrent cross-engine update
    auto w = db_.Begin();
    ASSERT_TRUE(w->Put(mem_table_, MakeKey(1), "m2").ok());
    ASSERT_TRUE(w->Put(stor_table_, MakeKey(1), "s2").ok());
    ASSERT_TRUE(w->Commit().ok());
  }

  // Reader crosses into stor only now; the CSR must hand it the snapshot
  // matching its anchor position — before the update.
  ASSERT_TRUE(reader->Get(stor_table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "s1") << "cross-engine snapshot skewed forward";
}

TEST_F(TxnTest, ReadCommittedSeesLatestPerAccess) {
  {
    auto setup = db_.Begin();
    ASSERT_TRUE(setup->Put(stor_table_, MakeKey(1), "v1").ok());
    ASSERT_TRUE(setup->Commit().ok());
  }
  auto rc = db_.Begin(IsolationLevel::kReadCommitted);
  std::string v;
  ASSERT_TRUE(rc->Get(stor_table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "v1");
  {
    auto w = db_.Begin();
    ASSERT_TRUE(w->Put(stor_table_, MakeKey(1), "v2").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  ASSERT_TRUE(rc->Get(stor_table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "v2") << "read committed must refresh its snapshot";
}

TEST_F(TxnTest, ScanThroughTransactionApi) {
  auto setup = db_.Begin();
  for (uint64_t k = 0; k < 20; ++k) {
    ASSERT_TRUE(
        setup->Put(stor_table_, MakeKey(k), "v" + std::to_string(k)).ok());
  }
  ASSERT_TRUE(setup->Commit().ok());

  auto txn = db_.Begin();
  size_t n = 0;
  ASSERT_TRUE(txn->Scan(stor_table_, MakeKey(5), 7,
                        [&](const Key&, const std::string&) {
                          n++;
                          return true;
                        })
                  .ok());
  EXPECT_EQ(n, 7u);
}

TEST_F(TxnTest, CommitWaitsForDurability) {
  auto txn = db_.Begin();
  ASSERT_TRUE(txn->Put(mem_table_, MakeKey(1), "d").ok());
  ASSERT_TRUE(txn->Put(stor_table_, MakeKey(1), "d").ok());
  ASSERT_TRUE(txn->Commit().ok());
  // After a successful commit both logs must cover the transaction.
  EXPECT_GE(db_.engine(0)->DurableLsn(), db_.engine(0)->CurrentLsn());
  EXPECT_GE(db_.engine(1)->DurableLsn(), db_.engine(1)->CurrentLsn());
}

TEST_F(TxnTest, StatsCountCsrTraffic) {
  // Anchor-only transactions must not touch the CSR (ERMIA-S == ERMIA).
  for (int i = 0; i < 10; ++i) {
    auto txn = db_.Begin();
    ASSERT_TRUE(txn->Put(mem_table_, MakeKey(i), "x").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  EXPECT_EQ(db_.stats().csr.accesses, 0u);

  // Slow-engine transactions are effectively cross-engine (Section 4.3).
  for (int i = 0; i < 10; ++i) {
    auto txn = db_.Begin();
    ASSERT_TRUE(txn->Put(stor_table_, MakeKey(i), "x").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  auto stats = db_.stats();
  EXPECT_GT(stats.csr.accesses, 0u);
  // All with the same anchor snapshot -> a single CSR key (Section 6.3).
  EXPECT_LE(db_.csr().EntryCount(), 1u);
}

TEST(TxnConfigTest, SkeenaOffCommitsIndependently) {
  DatabaseOptions opts = FastOptions();
  opts.enable_skeena = false;
  Database db(opts);
  auto mem_t = *db.CreateTable("m", EngineKind::kMem);
  auto stor_t = *db.CreateTable("s", EngineKind::kStor);
  auto txn = db.Begin();
  ASSERT_TRUE(txn->Put(mem_t, MakeKey(1), "m").ok());
  ASSERT_TRUE(txn->Put(stor_t, MakeKey(1), "s").ok());
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(db.stats().csr.accesses, 0u) << "no CSR traffic with Skeena off";
}

TEST(TxnConfigTest, StorAnchorAblationWorks) {
  DatabaseOptions opts = FastOptions();
  opts.anchor = EngineKind::kStor;  // heavyweight anchor (Section 4.3 note)
  Database db(opts);
  auto mem_t = *db.CreateTable("m", EngineKind::kMem);
  auto stor_t = *db.CreateTable("s", EngineKind::kStor);
  for (int i = 0; i < 20; ++i) {
    auto txn = db.Begin();
    ASSERT_TRUE(txn->Put(stor_t, MakeKey(i), "s").ok());
    ASSERT_TRUE(txn->Put(mem_t, MakeKey(i), "m").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  auto reader = db.Begin();
  std::string v;
  ASSERT_TRUE(reader->Get(mem_t, MakeKey(19), &v).ok());
  EXPECT_EQ(v, "m");
  // With stordb anchoring, mem-only transactions now pay the CSR.
  EXPECT_GT(db.stats().csr.accesses, 0u);
}

TEST(TxnConfigTest, SyncCommitModeWorks) {
  DatabaseOptions opts = FastOptions();
  opts.pipeline.mode = CommitPipeline::Mode::kSync;
  Database db(opts);
  auto mem_t = *db.CreateTable("m", EngineKind::kMem);
  auto txn = db.Begin();
  ASSERT_TRUE(txn->Put(mem_t, MakeKey(1), "v").ok());
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_GE(db.engine(0)->DurableLsn(), db.engine(0)->CurrentLsn());
}

TEST(TxnConfigTest, PartitionedCommitQueues) {
  DatabaseOptions opts = FastOptions();
  opts.pipeline.num_queues = 4;
  Database db(opts);
  auto mem_t = *db.CreateTable("m", EngineKind::kMem);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        auto txn = db.Begin();
        ASSERT_TRUE(
            txn->Put(mem_t, MakeKey(t * 1000 + i), "v").ok());
        ASSERT_TRUE(txn->Commit().ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GE(db.pipeline().completed(), 200u);
}

// ------------------------------------------------------------ crossing wait
//
// A crosser whose anchor snapshot covers an anchor commit still inside its
// commit window (timestamp drawn, CSR check not yet run) waits for that
// commit before installing a CSR mapping (DESIGN.md "Crossing wait").
// Installing first would record a reader at the committer's own anchor
// key with an other-engine view below the committer's other-engine commit
// — the "reader tie" that aborts the committer.

// Background flusher for a memdb log running with auto_flush off: flushes
// while enabled; Pause() returns only once no flush is in progress.
class ManualFlusher {
 public:
  explicit ManualFlusher(EngineIface* engine)
      : engine_(engine), thread_([this] { Run(); }) {}
  ~ManualFlusher() {
    stop_.store(true);
    thread_.join();
  }
  void Pause() { Set(false); }
  void Resume() { Set(true); }

 private:
  void Set(bool on) {
    std::lock_guard<std::mutex> lk(mu_);
    on_ = on;
  }
  void Run() {
    while (!stop_.load()) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (on_) (void)engine_->FlushLog();
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  EngineIface* engine_;
  std::mutex mu_;
  bool on_ = true;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

TEST(CrossingWaitTest, CrosserWaitsOutFrozenAnchorCommit) {
  DatabaseOptions opts = FastOptions();
  opts.mem.log.auto_flush = false;
  opts.mem.log.buffer_bytes = 64 * 1024;
  opts.mem.log.block_bytes = 4 * 1024;
  Database db(opts);
  auto mem_t = *db.CreateTable("m", EngineKind::kMem);
  auto stor_t = *db.CreateTable("s", EngineKind::kStor);
  ManualFlusher flusher(db.engine(EngineKind::kMem));
  {
    auto seed = db.Begin();
    ASSERT_TRUE(seed->Put(mem_t, MakeKey(1), "v0").ok());
    ASSERT_TRUE(seed->Put(stor_t, MakeKey(1), "v0").ok());
    ASSERT_TRUE(seed->Commit().ok());
  }

  // Freeze point: fill the memdb log ring to 4 bytes short of full, so the
  // committer's commit-begin append (after its cts draw, before its CSR
  // check) parks until the flusher resumes.
  flusher.Pause();
  LogManager* log = db.engine(EngineKind::kMem)->Log();
  ASSERT_TRUE(log->Flush().ok());
  const Lsn reserved = log->CurrentLsn();
  ASSERT_EQ(log->DurableLsn(), reserved);
  const uint64_t block = 4 * 1024;
  uint64_t remaining =
      (reserved & ~(block - 1)) + 64 * 1024 - reserved - 4;
  while (remaining > 0) {
    uint64_t frame = remaining <= 2048
                         ? remaining
                         : std::min<uint64_t>(2048, remaining - 16);
    std::vector<uint8_t> payload(frame - kLogFrameHeaderSize, 0xab);
    log->Append(payload);
    remaining -= frame;
  }
  const uint64_t waits_before = log->stats().space_waits;

  Status commit_status;
  std::atomic<bool> committed{false};
  std::thread committer([&] {
    auto w = db.Begin();
    EXPECT_TRUE(w->Put(mem_t, MakeKey(1), "v1").ok());
    EXPECT_TRUE(w->Put(stor_t, MakeKey(1), "v1").ok());
    commit_status = w->Commit();
    committed.store(true);
  });
  while (log->stats().space_waits == waits_before) {
    std::this_thread::yield();
  }

  std::atomic<bool> crossed{false};
  std::string stor_v;
  std::string mem_v;
  Status crosser_status;
  std::thread crosser([&] {
    auto r = db.Begin(IsolationLevel::kSnapshot);
    // stordb first: the crossing (CSR selection) happens right here, with
    // an anchor snapshot at or above the parked committer's cts.
    Status s = r->Get(stor_t, MakeKey(1), &stor_v);
    crossed.store(true);
    if (s.ok()) s = r->Get(mem_t, MakeKey(1), &mem_v);
    if (s.ok()) s = r->Commit();
    crosser_status = s;
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_FALSE(committed.load()) << "the committer was not frozen";
  EXPECT_FALSE(crossed.load())
      << "the crosser selected past an anchor commit still in its window";

  flusher.Resume();
  committer.join();
  crosser.join();
  EXPECT_TRUE(commit_status.ok()) << commit_status.ToString();
  EXPECT_TRUE(crosser_status.ok()) << crosser_status.ToString();
  EXPECT_EQ(stor_v, "v1");
  EXPECT_EQ(mem_v, "v1");
  EXPECT_EQ(db.stats().csr.reader_tie, 0u);
}

struct PairStressConfig {
  IsolationLevel iso;
  EngineKind anchor;
};

// Concurrent +1 writers and readers on (mem[k], stor[k]) pairs, recorded
// and run through the SI checker. Every transaction reads and writes the
// anchor-engine table first and the other engine's last, so each one
// crosses — and, under read committed, re-selects — after its last anchor
// snapshot refresh. No commit may then die of a reader tie.
void RunPairStress(const PairStressConfig& cfg) {
  DatabaseOptions opts = FastOptions();
  opts.record_history = true;
  opts.anchor = cfg.anchor;
  Database db(opts);
  auto mem_t = *db.CreateTable("m", EngineKind::kMem);
  auto stor_t = *db.CreateTable("s", EngineKind::kStor);
  const TableHandle& first = cfg.anchor == EngineKind::kMem ? mem_t : stor_t;
  const TableHandle& second = cfg.anchor == EngineKind::kMem ? stor_t : mem_t;
  constexpr int kKeys = 16;
  {
    auto seed = db.Begin();
    for (int k = 0; k < kKeys; ++k) {
      ASSERT_TRUE(seed->Put(mem_t, MakeKey(k), "0").ok());
      ASSERT_TRUE(seed->Put(stor_t, MakeKey(k), "0").ok());
    }
    ASSERT_TRUE(seed->Commit().ok());
  }

  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 1500;
  std::atomic<uint64_t> commits{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::mt19937_64 rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kTxnsPerThread; ++i) {
        Key key = MakeKey(rng() % kKeys);
        bool write = (rng() & 1) != 0;
        auto txn = db.Begin(cfg.iso);
        std::string a, b;
        Status s = txn->Get(first, key, &a);
        if (s.ok()) s = txn->Get(second, key, &b);
        if (s.ok() && write) {
          std::string next = std::to_string(std::stoll(a) + 1);
          s = txn->Put(first, key, next);
          if (s.ok()) s = txn->Put(second, key, next);
        }
        if (s.ok()) s = txn->Commit();
        if (s.ok()) {
          commits.fetch_add(1);
        } else {
          EXPECT_TRUE(s.IsAnyAbort()) << s.ToString();
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  auto stats = db.stats().csr;
  EXPECT_EQ(stats.reader_tie, 0u);
  EXPECT_EQ(stats.commit_aborts,
            stats.reader_tie + stats.low_bound + stats.high_bound +
                stats.sealed);
  EXPECT_GT(commits.load(), 0u);

  auto history = db.recorder()->Fold();
  SiCheckOptions check;
  check.anchor_index = db.anchor_index();
  check.have_csr_dump = true;
  Timestamp floor = 0;
  for (const auto& m : db.csr().DumpMappings(&floor)) {
    check.csr_mappings.push_back({m.key, m.vmin, m.vmax});
  }
  check.csr_floor = floor;
  SiReport report = CheckSnapshotIsolation(history, check);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(CrossingWaitTest, PairStressSnapshotIsolation) {
  RunPairStress({IsolationLevel::kSnapshot, EngineKind::kMem});
}

TEST(CrossingWaitTest, PairStressReadCommitted) {
  RunPairStress({IsolationLevel::kReadCommitted, EngineKind::kMem});
}

TEST(CrossingWaitTest, PairStressStorAnchor) {
  RunPairStress({IsolationLevel::kSnapshot, EngineKind::kStor});
}

}  // namespace
}  // namespace skeena
