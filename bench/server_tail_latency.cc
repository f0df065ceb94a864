// Open-loop tail latency of the network front-end (docs/PROTOCOL.md).
//
// A closed-loop driver (one outstanding txn per connection, like
// fig12_latency) hides queueing delay: a slow response simply delays the
// next request, so the tail never sees the backlog it caused. This bench
// is open-loop: every connection FIRES transactions on a fixed schedule —
// BEGIN + EXEC + COMMIT pipelined in one write — whether or not earlier
// responses have arrived, and commit latency is measured from the BEGIN
// send to the COMMIT_OK receive. That makes p99/p999 honest under
// coordinated omission.
//
// Rows are connection counts (SKEENA_BENCH_SERVER_CONNS, default "8,64");
// columns are the per-connection offered rate in txn/s
// (SKEENA_BENCH_SERVER_RATES, default "100,400,1600"). Each cell drives a
// fresh in-process Server over localhost for SKEENA_BENCH_MS. Matrices:
// p50/p99/p999 commit latency (ms) and achieved throughput (txn/s);
// everything lands in BENCH_server_tail_latency.json via the emitter.
//
// Each transaction is cross-engine (one GET+PUT on the memory table, one
// GET+PUT on the storage table) so the measured path includes Skeena's
// cross-engine commit, not just the wire.

#include <poll.h>

#include <chrono>
#include <deque>
#include <memory>
#include <sstream>
#include <thread>

#include "bench/common/bench_harness.h"
#include "common/env.h"
#include "server/client.h"
#include "server/server.h"

namespace skeena::bench {
namespace {

using server::Client;
using server::Op;
using server::Response;
using server::Server;
using server::ServerOptions;
using server::Stmt;

using Clock = std::chrono::steady_clock;

std::vector<int> ParseIntList(const std::string& csv) {
  std::vector<int> out;
  std::istringstream in(csv);
  std::string tok;
  while (std::getline(in, tok, ',')) {
    if (!tok.empty()) out.push_back(std::stoi(tok));
  }
  return out;
}

struct ConnStats {
  uint64_t commits = 0;  // acknowledged by the deadline
  uint64_t aborts = 0;
  uint64_t sent = 0;
  Histogram latency;  // BEGIN send -> COMMIT_OK receive, ns
};

/// One connection's open-loop schedule: txn i is due at start + i/rate.
/// Sends never wait for responses; responses are drained between sends
/// (strictly ordered by the protocol, so a FIFO of in-flight commit
/// request_ids pairs every COMMIT response with its BEGIN send time).
void DriveConn(const std::string& host, uint16_t port, int rate_per_sec,
               Clock::time_point start, Clock::time_point deadline,
               uint64_t seed, ConnStats* stats) {
  Client client;
  if (!client.Connect(host, port).ok()) return;
  uint32_t mem_tok, stor_tok;
  {
    auto m = client.OpenTable("mem_t");
    auto s = client.OpenTable("stor_t");
    if (!m.ok() || !s.ok()) return;
    mem_tok = *m;
    stor_tok = *s;
  }

  Rng rng(seed);
  const std::string value(64, 'v');
  constexpr uint64_t kKeySpace = 1 << 14;
  const auto period =
      std::chrono::nanoseconds(uint64_t{1000000000} / rate_per_sec);

  struct InFlight {
    uint64_t commit_rid;
    Clock::time_point begin_sent;
  };
  std::deque<InFlight> inflight;

  // Drains whatever responses have arrived; with `block`, waits for the
  // head-of-line response (used after the send schedule ends). Frames the
  // client already buffered are invisible to poll(), so they go first.
  auto drain = [&](bool block) {
    while (!inflight.empty()) {
      if (!block && !client.ResponseBuffered()) {
        pollfd pfd{client.fd(), POLLIN, 0};
        if (::poll(&pfd, 1, 0) <= 0) return true;
      }
      Response rsp;
      if (!client.RecvResponse(&rsp).ok()) return false;
      if (rsp.request_id != inflight.front().commit_rid) continue;
      auto now = Clock::now();
      stats->latency.Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              now - inflight.front().begin_sent)
              .count()));
      if (rsp.op == Op::kCommitOk) {
        // Throughput counts commits acknowledged inside the window; later
        // ones still contribute their latency sample.
        if (now <= deadline) ++stats->commits;
      } else {
        ++stats->aborts;
      }
      inflight.pop_front();
    }
    return true;
  };

  uint64_t issued = 0;
  for (;;) {
    auto due = start + period * issued;
    if (due >= deadline) break;
    // Sleep in poll() so response frames are drained while we wait out
    // the schedule (they would otherwise stack up in the kernel buffer
    // and bias the receive timestamps).
    for (;;) {
      auto now = Clock::now();
      if (now >= due) break;
      if (!drain(false)) return;
      pollfd pfd{client.fd(), POLLIN, 0};
      int wait_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(due - now)
              .count());
      ::poll(&pfd, 1, std::max(wait_ms, 1));
    }

    auto begin_sent = Clock::now();
    client.SendBegin();
    uint64_t k1 = rng.Uniform(kKeySpace), k2 = rng.Uniform(kKeySpace);
    client.SendExec({Stmt::Get(mem_tok, MakeKey(k1)),
                     Stmt::Put(mem_tok, MakeKey(k1), value),
                     Stmt::Get(stor_tok, MakeKey(k2)),
                     Stmt::Put(stor_tok, MakeKey(k2), value)});
    uint64_t commit_rid = client.SendCommit();
    inflight.push_back({commit_rid, begin_sent});
    ++issued;
    ++stats->sent;
    if (!drain(false)) return;
  }
  drain(true);  // collect the tail
  client.Close();
}

RunResult RunCell(int conns, int rate_per_sec, uint64_t duration_ms) {
  DatabaseOptions opts;
  Database db(opts);
  if (!db.CreateTable("mem_t", EngineKind::kMem, 1 << 15).ok()) return {};
  if (!db.CreateTable("stor_t", EngineKind::kStor).ok()) return {};

  ServerOptions sopts;
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  sopts.workers = std::max(2, hw / 2);
  Server server(&db, sopts);
  if (!server.Start().ok()) return {};

  std::vector<ConnStats> stats(static_cast<size_t>(conns));
  auto start = Clock::now() + std::chrono::milliseconds(20);
  auto deadline = start + std::chrono::milliseconds(duration_ms);
  std::vector<std::thread> drivers;
  drivers.reserve(static_cast<size_t>(conns));
  for (int c = 0; c < conns; ++c) {
    drivers.emplace_back(DriveConn, "127.0.0.1", server.port(), rate_per_sec,
                         start, deadline, static_cast<uint64_t>(c) * 31 + 7,
                         &stats[static_cast<size_t>(c)]);
  }
  for (auto& t : drivers) t.join();
  server.Stop();

  RunResult r;
  r.seconds = static_cast<double>(duration_ms) / 1e3;
  for (const ConnStats& s : stats) {
    r.commits += s.commits;
    r.queries += s.sent * 4;
    r.skeena_aborts += s.aborts;
    r.latency.Merge(s.latency);
  }
  return r;
}

void Run() {
  BenchScale scale = BenchScale::FromEnv();
  std::vector<int> conn_rows = ParseIntList(
      GetEnvString("SKEENA_BENCH_SERVER_CONNS", "8,64"));
  std::vector<int> rate_cols = ParseIntList(
      GetEnvString("SKEENA_BENCH_SERVER_RATES", "100,400,1600"));

  auto p50 = std::make_shared<ResultMatrix>(
      "Server open-loop: p50 commit latency (ms)", "Connections");
  auto p99 = std::make_shared<ResultMatrix>(
      "Server open-loop: p99 commit latency (ms)", "Connections");
  auto p999 = std::make_shared<ResultMatrix>(
      "Server open-loop: p999 commit latency (ms)", "Connections");
  auto tps = std::make_shared<ResultMatrix>(
      "Server open-loop: achieved throughput (txn/s)", "Connections");

  for (int conns : conn_rows) {
    for (int rate : rate_cols) {
      std::string row = std::to_string(conns);
      std::string col = std::to_string(rate) + "/s";
      RegisterCell(
          "ServerTail/conns:" + row + "/rate:" + std::to_string(rate),
          [=] {
            RunResult r = RunCell(conns, rate, scale.duration_ms);
            p50->Set(row, col,
                     static_cast<double>(r.latency.Percentile(50)) / 1e6);
            p99->Set(row, col,
                     static_cast<double>(r.latency.Percentile(99)) / 1e6);
            p999->Set(row, col,
                      static_cast<double>(r.latency.Percentile(99.9)) / 1e6);
            tps->Set(row, col, r.Tps());
            return r;
          });
    }
  }
  ::benchmark::RunSpecifiedBenchmarks();
  p50->Print(3);
  p99->Print(3);
  p999->Print(3);
  tps->Print(1);
}

}  // namespace
}  // namespace skeena::bench

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  skeena::bench::Run();
  return 0;
}
