// micro_cross: an in-process Database with default options (in-memory
// logs), two 100k-row tables, one per engine. Every transaction crosses
// engines on a uniform key: half read both halves of a pair and check them
// equal, half also write both halves +1.

#include <cinttypes>
#include <cstdio>

#include "perfbench/workloads.h"

namespace skeena::perfbench {

namespace {

constexpr int kClients = 16;
constexpr int kSetups = 9;
constexpr int kMaxAttempts = 1000;

}  // namespace

PairDb SetupMicroCross(const MicroCrossOptions& options, uint64_t seed) {
  DatabaseOptions opts;
  opts.enable_skeena = options.enable_skeena;
  PairDb p;
  p.db = std::make_unique<Database>(opts);
  p.rows = options.rows;
  uint64_t sum = 0;
  if (!LoadPairs(p.db.get(), p.rows, seed, &p.mem, &p.stor, &sum)) {
    std::fprintf(stderr, "micro_cross: load failed\n");
    std::abort();
  }
  return p;
}

TxnBody MicroCrossBody(PairDb* p, std::atomic<uint64_t>* torn) {
  return [p, torn](int, Rng& rng, Tracer& tr, uint64_t id) {
    TxnOutcome out;
    const Key key = PairKey(rng.Uniform(p->rows));
    const bool read_only = rng.Uniform(2) == 0;
    Database* db = p->db.get();
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      int32_t root = tr.Begin("txn", id);
      int32_t s = tr.Begin("db.begin", id, root);
      auto txn = db->Begin();
      tr.End(s);
      std::string mv, sv;
      s = tr.Begin("txn.get", id, root, 0);
      Status st = txn->Get(p->mem, key, &mv);
      tr.End(s);
      if (st.ok()) {
        s = tr.Begin("txn.get", id, root, 1, /*cross=*/true);
        st = txn->Get(p->stor, key, &sv);
        tr.End(s);
      }
      if (st.ok() && mv != sv) torn->fetch_add(1);
      if (st.ok() && !read_only) {
        std::string next = mv;
        uint64_t c = PairCounter(mv) + 1;
        std::memcpy(next.data(), &c, sizeof(c));
        s = tr.Begin("txn.put", id, root, 0);
        st = txn->Put(p->mem, key, next);
        tr.End(s);
        if (st.ok()) {
          s = tr.Begin("txn.put", id, root, 1);
          st = txn->Put(p->stor, key, next);
          tr.End(s);
        }
      }
      if (st.ok()) {
        s = tr.Begin("txn.commit", id, root);
        st = txn->Commit();
        tr.End(s);
      }
      tr.End(root);
      if (st.ok()) {
        out.kind = read_only ? TxnOutcome::Kind::kReadOnly
                             : TxnOutcome::Kind::kReadWrite;
        return out;
      }
      txn->Abort();
      if (!st.IsAnyAbort()) {
        std::fprintf(stderr, "micro_cross: %s\n", st.ToString().c_str());
        break;
      }
      ++out.aborts;
    }
    out.kind = TxnOutcome::Kind::kFailed;
    return out;
  };
}

bool CheckAllPairs(Database* db, const TableHandle& mem,
                   const TableHandle& stor, uint64_t rows, uint64_t* sum,
                   std::string* why) {
  *sum = 0;
  auto txn = db->Begin();
  for (uint64_t k = 0; k < rows; ++k) {
    std::string mv, sv;
    Status s1 = txn->Get(mem, PairKey(k), &mv);
    Status s2 = txn->Get(stor, PairKey(k), &sv);
    if (!s1.ok() || !s2.ok()) {
      *why = "pair " + std::to_string(k) + " unreadable: " + s1.ToString() +
             " / " + s2.ToString();
      return false;
    }
    if (mv != sv) {
      *why = "pair " + std::to_string(k) + " torn: mem counter " +
             std::to_string(PairCounter(mv)) + ", stor counter " +
             std::to_string(PairCounter(sv));
      return false;
    }
    *sum += PairCounter(mv);
  }
  return txn->Commit().ok();
}

WorkloadRun RunMicroCross(const RunArgs& args) {
  MicroCrossOptions options;
  std::vector<double> setups;
  PairDb p;
  for (int i = 0; i < kSetups; ++i) {
    p = PairDb();  // the previous instance is torn down outside the timing
    uint64_t t0 = NowNs();
    p = SetupMicroCross(options, args.seed);
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  std::atomic<uint64_t> torn{0};
  Measurement m =
      Measure(args, kClients, p.db.get(), nullptr, MicroCrossBody(&p, &torn));

  bool correct = true;
  if (torn.load() != 0) {
    std::fprintf(stderr, "micro_cross: %" PRIu64 " torn pairs read\n",
                 torn.load());
    correct = false;
  }
  uint64_t live_sum = 0;
  std::string why;
  if (!CheckAllPairs(p.db.get(), p.mem, p.stor, p.rows, &live_sum, &why)) {
    std::fprintf(stderr, "micro_cross: final pass: %s\n", why.c_str());
    correct = false;
  }

  // Restart: replay the in-memory logs into a fresh database and check it
  // holds exactly the live pairs.
  std::vector<double> recoveries;
  for (int i = 0; i < kRestarts && correct; ++i) {
    Restart r = RestartInMemory(
        p.db.get(), DatabaseOptions(),
        {{"pair_mem", EngineKind::kMem, kPairValueSize},
         {"pair_stor", EngineKind::kStor, kPairValueSize}});
    if (r.db == nullptr || r.logged_txns == 0) {
      std::fprintf(stderr, "micro_cross: restart failed\n");
      correct = false;
      break;
    }
    recoveries.push_back(r.recover_s * 1e6 /
                         static_cast<double>(r.logged_txns));
    uint64_t rec_sum = 0;
    if (!CheckAllPairs(r.db.get(), *r.db->GetTable("pair_mem"),
                       *r.db->GetTable("pair_stor"), p.rows, &rec_sum, &why) ||
        rec_sum != live_sum) {
      std::fprintf(stderr,
                   "micro_cross: recovered state differs (%s; sum %" PRIu64
                   " vs %" PRIu64 ")\n",
                   why.c_str(), rec_sum, live_sum);
      correct = false;
    }
  }
  double recovery_us = Fastest(recoveries);
  return Finish(args, correct, Median(setups), recovery_us, &m);
}

}  // namespace skeena::perfbench
