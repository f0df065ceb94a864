// wire_durable: an in-process skeena_server with default ServerOptions on
// localhost, SKNA connections from closed-loop clients, and a file-backed
// database: catalog and table spaces in a data dir, each engine's WAL a
// FileDevice synced on every flush. Every transaction writes both halves of
// a pair. After the window the server stops, the database is reopened and
// Recover() is timed; the recovered pairs must all be equal and their
// counters must have grown by exactly the acknowledged commits.
//
// The WAL files are anonymous memory files (memfd, tmpfs-backed): real
// pwrite and fsync calls without the shared disk, whose fsync latency
// varies by more than the bounds from one minute to the next.

#include <sys/mman.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>

#include "perfbench/workloads.h"

namespace skeena::perfbench {

namespace {

constexpr int kClients = 16;
constexpr int kSetups = 9;
constexpr int kMaxAttempts = 1000;
constexpr uint64_t kRows = 100000;

using server::Response;
using server::Stmt;
using server::StmtResult;

enum class Reply { kOk, kAbort, kError };

// Receives one response; kOk iff it carries `expect`.
Reply Recv(server::Client& cl, server::Op expect, Response* rsp) {
  if (!cl.RecvResponse(rsp).ok()) return Reply::kError;
  if (rsp->op == expect) return Reply::kOk;
  if (rsp->op == server::Op::kTxnErr && server::ErrIsAbort(rsp->err_code())) {
    return Reply::kAbort;
  }
  std::fprintf(stderr, "wire_durable: unexpected reply %s\n",
               rsp->ToStatus().ToString().c_str());
  return Reply::kError;
}

// Decodes an EXEC_OK answering `kinds`; kAbort if a statement aborted the
// transaction (the server has already rolled it back).
Reply Results(const Response& rsp, const std::vector<Stmt::Kind>& kinds,
              std::vector<StmtResult>* out) {
  if (!server::DecodeExecOkBody(rsp.body, kinds, out)) return Reply::kError;
  for (const StmtResult& r : *out) {
    if (r.status == server::Err::kOk) continue;
    if (server::ErrIsAbort(r.status)) return Reply::kAbort;
    std::fprintf(stderr, "wire_durable: statement failed: %s\n",
                 server::ErrName(r.status));
    return Reply::kError;
  }
  return Reply::kOk;
}

// One engine's WAL file in anonymous memory.
class MemFile {
 public:
  explicit MemFile(const char* name) : fd_(::memfd_create(name, MFD_CLOEXEC)) {}
  ~MemFile() {
    if (fd_ >= 0) ::close(fd_);
  }
  MemFile(const MemFile&) = delete;
  MemFile& operator=(const MemFile&) = delete;

  bool ok() const { return fd_ >= 0; }
  /// A path that opens this file (the process's own descriptor entry).
  std::string path() const { return "/proc/self/fd/" + std::to_string(fd_); }

  /// A new memory file with the same contents.
  std::unique_ptr<MemFile> Copy(const char* name) const {
    auto out = std::make_unique<MemFile>(name);
    std::vector<char> buf(1 << 20);
    for (off_t off = 0;;) {
      ssize_t n = ::pread(fd_, buf.data(), buf.size(), off);
      if (n <= 0) return n == 0 && out->ok() ? std::move(out) : nullptr;
      if (::pwrite(out->fd_, buf.data(), static_cast<size_t>(n), off) != n) {
        return nullptr;
      }
      off += n;
    }
  }

 private:
  int fd_;
};

struct Wal {
  std::unique_ptr<MemFile> mem = std::make_unique<MemFile>("mem.log");
  std::unique_ptr<MemFile> stor = std::make_unique<MemFile>("stor.log");
};

struct Instance {
  std::string dir;
  Wal wal;
  std::unique_ptr<Database> db;
  std::unique_ptr<server::Server> srv;
  std::vector<std::unique_ptr<server::Client>> conns;
  uint64_t initial_sum = 0;

  void Close() {
    for (auto& c : conns) c->Close();
    conns.clear();
    if (srv) srv->Stop();
  }
  // Stops everything and deletes the data dir.
  void Teardown() {
    Close();
    srv.reset();
    db.reset();
    wal = Wal();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

DatabaseOptions Options(const std::string& dir, const Wal& wal) {
  DatabaseOptions opts;
  opts.data_dir = dir;
  std::string mem = wal.mem->path(), stor = wal.stor->path();
  opts.log_device_factory = [mem, stor](const std::string& name) {
    auto dev = FileDevice::Open(name == "mem.log" ? mem : stor);
    if (!dev.ok()) {
      std::fprintf(stderr, "wire_durable: open %s: %s\n", name.c_str(),
                   dev.status().ToString().c_str());
      std::abort();
    }
    return std::unique_ptr<StorageDevice>(std::move(dev.value()));
  };
  return opts;
}

// Opens a fresh data dir, loads the pairs, starts the server and connects
// the clients. Returns false on any failure.
bool Setup(const std::string& dir, uint64_t seed, Instance* in) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  in->dir = dir;
  if (!in->wal.mem->ok() || !in->wal.stor->ok()) return false;
  // Database creates data_dir only when it opens a file there itself; with
  // the logs supplied, the first catalog entry would find no directory.
  std::filesystem::create_directories(dir, ec);
  in->db = std::make_unique<Database>(Options(dir, in->wal));
  TableHandle mem, stor;
  if (!LoadPairs(in->db.get(), kRows, seed, &mem, &stor, &in->initial_sum)) {
    return false;
  }
  in->srv = std::make_unique<server::Server>(in->db.get());
  if (!in->srv->Start().ok()) return false;
  for (int c = 0; c < kClients; ++c) {
    auto cl = std::make_unique<server::Client>();
    if (!cl->Connect("127.0.0.1", in->srv->port()).ok() ||
        !cl->OpenTable("pair_mem").ok() || !cl->OpenTable("pair_stor").ok()) {
      return false;
    }
    in->conns.push_back(std::move(cl));
  }
  return true;
}

}  // namespace

TxnBody WireBody(std::vector<std::unique_ptr<server::Client>>* conns,
                 uint64_t rows, std::atomic<uint64_t>* acked,
                 std::atomic<uint64_t>* torn) {
  return [=](int client, Rng& rng, Tracer& tr, uint64_t id) {
    TxnOutcome out;
    server::Client& cl = *(*conns)[static_cast<size_t>(client)];
    const Key key = PairKey(rng.Uniform(rows));
    const std::vector<Stmt> reads = {Stmt::Get(0, key), Stmt::Get(1, key)};
    const std::vector<Stmt::Kind> get2 = {Stmt::Kind::kGet, Stmt::Kind::kGet};
    const std::vector<Stmt::Kind> put2 = {Stmt::Kind::kPut, Stmt::Kind::kPut};
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      Response rsp;
      std::vector<StmtResult> res;
      int32_t root = tr.Begin("txn", id);
      // BEGIN and the read travel together; both answers may arrive in
      // one segment, so the second must come out of the client's buffer.
      uint64_t t0 = NowNs();
      int32_t sb = tr.Begin("rpc.begin", id, root);
      int32_t sr = tr.Begin("rpc.exec_read", id, root);
      cl.SendBegin();
      cl.SendExec(reads);
      Reply begun = Recv(cl, server::Op::kBeginOk, &rsp);
      tr.End(sb);
      Reply rep = Recv(cl, server::Op::kExecOk, &rsp);
      tr.End(sr);
      out.read_ns = NowNs() - t0;
      if (begun != Reply::kOk) break;
      if (rep == Reply::kOk) rep = Results(rsp, get2, &res);
      if (rep == Reply::kOk) {
        if (!res[0].found || !res[1].found) {
          std::fprintf(stderr, "wire_durable: pair missing\n");
          break;
        }
        if (res[0].value != res[1].value) torn->fetch_add(1);
        std::string next = res[0].value;
        uint64_t c = PairCounter(next) + 1;
        std::memcpy(next.data(), &c, sizeof(c));
        int32_t sw = tr.Begin("rpc.exec_write", id, root);
        cl.SendExec({Stmt::Put(0, key, next), Stmt::Put(1, key, next)});
        rep = Recv(cl, server::Op::kExecOk, &rsp);
        tr.End(sw);
        if (rep == Reply::kOk) rep = Results(rsp, put2, &res);
      }
      if (rep == Reply::kOk) {
        int32_t sc = tr.Begin("rpc.commit", id, root);
        cl.SendCommit();
        rep = Recv(cl, server::Op::kCommitOk, &rsp);
        tr.End(sc);
      }
      tr.End(root);
      if (rep == Reply::kOk) {
        acked->fetch_add(1);
        out.kind = TxnOutcome::Kind::kReadWrite;
        return out;
      }
      if (rep == Reply::kError) break;
      ++out.aborts;
    }
    out.kind = TxnOutcome::Kind::kFailed;
    return out;
  };
}

WorkloadRun RunWireDurable(const RunArgs& args) {
  // Runs are sequential; whatever an interrupted run left here goes.
  const std::string base = args.data_dir + "/wire_durable";
  std::error_code ec;
  std::filesystem::remove_all(base, ec);
  std::vector<double> setups;
  Instance in;
  bool correct = true;
  for (int i = 0; i < kSetups && correct; ++i) {
    if (i > 0) in.Teardown();
    uint64_t t0 = NowNs();
    correct = Setup(base + "/setup" + std::to_string(i), args.seed, &in);
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  if (!correct) {
    std::fprintf(stderr, "wire_durable: setup failed\n");
    WorkloadRun run;
    run.correct = false;
    return run;
  }

  std::atomic<uint64_t> acked{0}, torn{0};
  Measurement m = Measure(args, kClients, in.db.get(), in.srv.get(),
                          WireBody(&in.conns, kRows, &acked, &torn));
  in.Close();
  server::Server::Stats ss = in.srv->stats();
  if (ss.protocol_errors != 0 || ss.txns_aborted_on_disconnect != 0) {
    std::fprintf(stderr,
                 "wire_durable: %" PRIu64 " protocol errors, %" PRIu64
                 " orphan aborts\n",
                 ss.protocol_errors, ss.txns_aborted_on_disconnect);
    correct = false;
  }
  if (torn.load() != 0) {
    std::fprintf(stderr, "wire_durable: %" PRIu64 " torn pairs read\n",
                 torn.load());
    correct = false;
  }

  // Restart: reopen a copy of the data dir and WAL (Recover() writes to
  // them) and replay, kRestarts times.
  in.srv.reset();
  in.db.reset();
  std::vector<double> recoveries;
  for (int i = 0; i < kRestarts && correct; ++i) {
    std::string copy = in.dir + ".restart";
    std::filesystem::remove_all(copy, ec);
    std::filesystem::copy(in.dir, copy,
                          std::filesystem::copy_options::recursive, ec);
    if (ec) {
      std::fprintf(stderr, "wire_durable: copy data dir: %s\n",
                   ec.message().c_str());
      correct = false;
      break;
    }
    Wal wal;
    wal.mem = in.wal.mem->Copy("mem.log");
    wal.stor = in.wal.stor->Copy("stor.log");
    if (wal.mem == nullptr || wal.stor == nullptr) {
      std::fprintf(stderr, "wire_durable: could not copy the WAL\n");
      correct = false;
      break;
    }
    Database db(Options(copy, wal));
    uint64_t t0 = NowNs();
    Status rs = db.Recover();
    double recover_s = static_cast<double>(NowNs() - t0) / 1e9;
    uint64_t logged = CountLoggedTxns(&db);
    auto mem = db.GetTable("pair_mem");
    auto stor = db.GetTable("pair_stor");
    uint64_t sum = 0;
    std::string why;
    if (!rs.ok() || !mem.ok() || !stor.ok() || logged == 0) {
      std::fprintf(stderr, "wire_durable: recovery failed: %s\n",
                   rs.ToString().c_str());
      correct = false;
    } else if (!CheckAllPairs(&db, *mem, *stor, kRows, &sum, &why)) {
      std::fprintf(stderr, "wire_durable: after recovery: %s\n", why.c_str());
      correct = false;
    } else if (sum != in.initial_sum + acked.load()) {
      std::fprintf(stderr,
                   "wire_durable: counters grew by %" PRIu64 ", but %" PRIu64
                   " commits were acknowledged\n",
                   sum - in.initial_sum, acked.load());
      correct = false;
    } else {
      recoveries.push_back(recover_s * 1e6 / static_cast<double>(logged));
    }
  }
  double recovery_us = Fastest(recoveries);
  std::filesystem::remove_all(base, ec);
  return Finish(args, correct, Median(setups), recovery_us, &m);
}

}  // namespace skeena::perfbench
