// perfbench_selftest: checks that the benchmark's own checks and timers
// can fail. Run it with `python3 perfbench/run.py --selftest`.
//
//  1. Torn-pair non-vacuity: the micro_cross client loop on a database with
//     Skeena switched off (DatabaseOptions::enable_skeena = false) must
//     read torn pairs; with Skeena on, over the same hot keys, none.
//  2. Known-delay stub: the wire_durable client, pointed at a stub SKNA
//     server that answers the pipelined BEGIN + read EXEC in one write
//     after a fixed delay and COMMIT after another, must report those
//     delays within one bucket of common/histogram.h (6.25%), and a
//     throughput no higher than the delays allow. This guards against a
//     client that waits on the socket for a frame it has already buffered,
//     and against counting commits acknowledged after the window. The
//     figures checked are the ones a run reports.
//  3. Reporting: on synthetic windows, a stall of the program's own shows
//     in the reported throughput and p99, while sub-windows in which the
//     host stole CPU time are left out.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <thread>

#include "perfbench/workloads.h"

using namespace skeena;
using namespace skeena::perfbench;

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++failures;
}

double Value(const Metrics& m, const std::string& name) {
  for (const Metric& x : m.items()) {
    if (x.name == name) return x.value;
  }
  std::printf("FAIL: no metric %s\n", name.c_str());
  ++failures;
  return 0;
}

// ------------------------------------------------------------- torn pairs

void TornPairCheck(bool enable_skeena, uint64_t* torn, bool* final_ok) {
  MicroCrossOptions o;
  o.rows = 16;  // hot keys, so writers and readers overlap constantly
  o.enable_skeena = enable_skeena;
  PairDb p = SetupMicroCross(o, 42);
  std::atomic<uint64_t> n{0};
  std::vector<Tracer> tracers;
  RunWindow(4, 1.0, 42, false, MicroCrossBody(&p, &n), &tracers);
  uint64_t sum = 0;
  std::string why;
  *final_ok = CheckAllPairs(p.db.get(), p.mem, p.stor, p.rows, &sum, &why);
  *torn = n.load();
}

// ------------------------------------------------------------ stub server

class StubServer {
 public:
  StubServer(std::chrono::microseconds read_delay,
             std::chrono::microseconds commit_delay)
      : read_delay_(read_delay), commit_delay_(commit_delay) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (listen_fd_ < 0 ||
        ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        ::listen(listen_fd_, 16) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
            0) {
      std::perror("stub listen");
      std::exit(2);
    }
    port_ = ntohs(addr.sin_port);
    acceptor_ = std::thread([this] { AcceptLoop(); });
  }

  ~StubServer() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    acceptor_.join();
    ::close(listen_fd_);
    std::lock_guard<std::mutex> g(mu_);
    for (auto& t : conns_) t.join();
  }

  StubServer(const StubServer&) = delete;
  StubServer& operator=(const StubServer&) = delete;

  uint16_t port() const { return port_; }

 private:
  void AcceptLoop() {
    for (;;) {
      int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      std::lock_guard<std::mutex> g(mu_);
      conns_.emplace_back([this, fd] { Serve(fd); });
    }
  }

  static bool SendAll(int fd, const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, 0);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  void Serve(int fd) {
    std::string in, held;
    uint32_t tokens = 0;
    uint64_t gtid = 1;
    char buf[16384];
    for (;;) {
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      in.append(buf, static_cast<size_t>(n));
      for (;;) {
        size_t consumed = 0;
        server::Frame f;
        server::Err err;
        uint64_t hint = 0;
        if (server::ExtractFrame(in, &consumed, &f, &err, &hint) !=
            server::ParseResult::kFrame) {
          break;
        }
        in.erase(0, consumed);
        std::string out;
        switch (static_cast<server::Op>(f.opcode)) {
          case server::Op::kHello:
            out = server::EncodeHelloOk(f.request_id, server::kProtocolVersion);
            break;
          case server::Op::kOpenTable:
            out = server::EncodeTableOk(f.request_id, tokens++,
                                        EngineKind::kMem);
            break;
          case server::Op::kBegin:
            held = server::EncodeBeginOk(f.request_id, gtid++);
            break;
          case server::Op::kExec: {
            std::vector<server::Stmt> stmts;
            server::DecodeExecBody(f.body, &stmts);
            std::vector<server::StmtResult> results;
            for (const server::Stmt& s : stmts) {
              server::StmtResult r;
              r.kind = s.kind;
              r.found = s.kind == server::Stmt::Kind::kGet;
              if (r.found) r.value = PairValue(0, 7);
              results.push_back(std::move(r));
            }
            out = server::EncodeExecOk(f.request_id, results);
            if (!held.empty()) {  // BEGIN_OK + EXEC_OK in one write
              std::this_thread::sleep_for(read_delay_);
              out = held + out;
              held.clear();
            }
            break;
          }
          case server::Op::kCommit:
            std::this_thread::sleep_for(commit_delay_);
            out = server::EncodeCommitOk(f.request_id);
            break;
          default:
            out = server::EncodeAbortOk(f.request_id);
            break;
        }
        if (!out.empty() && !SendAll(fd, out)) break;
      }
    }
    ::close(fd);
  }

  std::chrono::microseconds read_delay_, commit_delay_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread acceptor_;
  std::mutex mu_;
  std::vector<std::thread> conns_;
};

void KnownDelayCheck() {
  constexpr int kConns = 2;
  constexpr double kBucket = 1.0625;  // common/histogram.h bucket width
  const auto read_delay = std::chrono::microseconds(8000);
  const auto commit_delay = std::chrono::microseconds(6000);
  const double read_ns = 8e6, txn_ns = 14e6;

  StubServer stub(read_delay, commit_delay);
  std::vector<std::unique_ptr<server::Client>> conns;
  for (int c = 0; c < kConns; ++c) {
    auto cl = std::make_unique<server::Client>();
    bool ok = cl->Connect("127.0.0.1", stub.port()).ok() &&
              cl->OpenTable("pair_mem").ok() &&
              cl->OpenTable("pair_stor").ok();
    Expect(ok, "connect to the stub server");
    if (!ok) return;
    conns.push_back(std::move(cl));
  }
  std::atomic<uint64_t> acked{0}, torn{0};
  std::vector<Tracer> tracers;
  WindowResult w = RunWindow(kConns, 1.0, 7, false,
                             WireBody(&conns, 1000, &acked, &torn), &tracers);
  for (auto& c : conns) c->Close();

  // The figures exactly as a run reports them.
  Summary s = Summarize(w);
  Metrics m;
  AddEndToEndMetrics(0, s, 0, 0, &m);
  const double read_p50 = Value(m, "read_p50_ms") * 1e6;
  const double txn_p50 = Value(m, "commit_p50_ms") * 1e6;
  const double tps = Value(m, "throughput_tps");
  double mean = 0;
  for (uint64_t v : s.rw_ns) mean += static_cast<double>(v);
  mean = s.rw_ns.empty() ? 0 : mean / static_cast<double>(s.rw_ns.size());
  std::printf("stub: read p50 %.1f us (delay %.0f), txn p50 %.1f us (delay "
              "%.0f), %" PRIu64 " commits, %.1f txn/s\n",
              read_p50 / 1e3, read_ns / 1e3, txn_p50 / 1e3, txn_ns / 1e3,
              s.committed, tps);
  Expect(s.committed > 0 && w.Total().failed == 0, "stub transactions commit");
  Expect(read_p50 >= read_ns && read_p50 <= read_ns * kBucket,
         "read latency = stub delay, within one histogram bucket");
  Expect(txn_p50 >= txn_ns && txn_p50 <= txn_ns * kBucket,
         "commit latency = stub delays, within one histogram bucket");
  Expect(tps <= kConns * 1e9 / txn_ns,
         "throughput no higher than the delays allow");
  Expect(mean > 0 && tps >= kConns * 1e9 / mean / kBucket,
         "throughput matches the measured latency");
  // Each client may leave out the one transaction in flight at the
  // deadline; every other acknowledged commit lies inside the window.
  const uint64_t committed = w.Total().committed;
  Expect(acked.load() >= committed && acked.load() - committed <= kConns,
         "every commit acknowledged inside the window counts");
}

// -------------------------------------------------------------- reporting

// A synthetic window: 20 sub-windows of 0.5 s, 1000 commits of 1 ms each,
// no steal.
WindowResult SyntheticWindow() {
  WindowResult w;
  w.start_ns = 1000;
  w.sub_ns = 500000000;
  w.subs.resize(20);
  for (size_t i = 0; i < w.subs.size(); ++i) {
    w.subs[i].seconds = 0.5;
    w.subs[i].committed = 1000;
    for (int k = 0; k < 1000; ++k) {
      w.rw.push_back({w.start_ns + i * w.sub_ns + 1 + k, 1000000});
    }
  }
  return w;
}

// The program stalls in `sub`: only 200 transactions complete there, each
// after 10 ms.
void Stall(WindowResult* w, size_t sub) {
  w->subs[sub].committed = 200;
  auto in_sub = [&](const Sample& x) { return w->SubOf(x.end_ns) == sub; };
  w->rw.erase(std::remove_if(w->rw.begin(), w->rw.end(), in_sub),
              w->rw.end());
  for (int k = 0; k < 200; ++k) {
    w->rw.push_back({w->start_ns + sub * w->sub_ns + 1 + k, 10000000});
  }
  std::sort(w->rw.begin(), w->rw.end(), [](const Sample& x, const Sample& y) {
    return x.end_ns < y.end_ns;
  });
}

void ReportingCheck() {
  Summary quiet = Summarize(SyntheticWindow());
  Expect(quiet.kept_share == 1 && quiet.tps() == 2000,
         "quiet host: the whole window is reported");

  // A program stall in 2 of 20 sub-windows (a tenth of the window: a median
  // over slices or chunks of it would not move) lowers the throughput and
  // lifts p99 to the stalled transactions' 10 ms.
  WindowResult stalled = SyntheticWindow();
  Stall(&stalled, 4);
  Stall(&stalled, 5);
  Metrics m;
  AddEndToEndMetrics(0, Summarize(stalled), 0, 0, &m);
  Expect(std::abs(Value(m, "throughput_tps") - 1840) < 1e-6,
         "a program stall lowers the reported throughput");
  Expect(Value(m, "commit_p99_ms") == 10,
         "a program stall shows in the reported p99");

  // Steal in 5 sub-windows: they are left out, a stall elsewhere is not.
  WindowResult stolen = stalled;
  for (size_t i = 10; i < 15; ++i) {
    stolen.subs[i].steal = 0.3;
    stolen.subs[i].committed = 100;
  }
  Summary st = Summarize(stolen);
  Expect(st.kept_share == 0.75 && st.committed == 13400,
         "stolen sub-windows are left out, stalled ones kept");

  // Steal everywhere: the least stolen half is reported.
  for (size_t i = 0; i < stolen.subs.size(); ++i) {
    stolen.subs[i].steal = 0.05 + 0.01 * static_cast<double>(i % 4);
  }
  Summary all = Summarize(stolen);
  Expect(all.kept_share == 0.5 && all.kept_steal < all.steal,
         "steal everywhere: the least stolen half is reported");
}

}  // namespace

int main() {
  uint64_t torn = 0;
  bool final_ok = false;
  TornPairCheck(true, &torn, &final_ok);
  std::printf("skeena on: %" PRIu64 " torn pairs read\n", torn);
  Expect(torn == 0 && final_ok, "Skeena on: no torn pair");
  TornPairCheck(false, &torn, &final_ok);
  std::printf("skeena off: %" PRIu64 " torn pairs read, final pass %s\n",
              torn, final_ok ? "clean" : "torn");
  Expect(torn > 0, "Skeena off: the torn-pair check trips");

  KnownDelayCheck();
  ReportingCheck();
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}
