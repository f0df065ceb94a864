#ifndef SKEENA_PERFBENCH_HARNESS_H_
#define SKEENA_PERFBENCH_HARNESS_H_

// Shared machinery of the repository benchmark (perfbench/run.py):
// closed-loop clients with a strict measurement window, raw latency
// samples, benchmark-side spans around each public call, counter snapshots
// of every layer's public stats(), and the one-line JSON result.

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/parking_lot.h"
#include "common/random.h"
#include "core/skeena.h"
#include "server/server.h"

namespace skeena::perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (created if missing).
  std::string trace_dir = ".bench_build/traces";
  /// Working space for file-backed workloads (created if missing).
  std::string data_dir = ".bench_build/data";
};

// ------------------------------------------------------------------ spans

/// One span, recorded by the benchmark around a call into the system.
/// `engine` is -1 (none), 0 (memdb) or 1 (stordb); `cross` marks the access
/// that made the transaction cross-engine (it contains CSR selection).
struct Span {
  const char* name;
  uint64_t txn;
  int32_t parent;  // index into the same thread's span vector, -1 = root
  int8_t engine;
  bool cross;
  uint64_t start_ns;
  uint64_t end_ns;
};

/// Per-client span buffer, kept in memory and written at exit. Disabled
/// tracers record nothing and return -1.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 16);
  }
  int32_t Begin(const char* name, uint64_t txn, int32_t parent = -1,
                int8_t engine = -1, bool cross = false) {
    if (!on_) return -1;
    spans_.push_back({name, txn, parent, engine, cross, NowNs(), 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
  }
  /// Drops the spans of an unfinished transaction (from index `mark`).
  void Truncate(size_t mark) {
    if (on_) spans_.resize(mark);
  }
  size_t size() const { return spans_.size(); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
};

// ------------------------------------------------------------ closed loop

/// Outcome of one logical transaction (aborted attempts are retried inside
/// the body and reported through `aborts`).
struct TxnOutcome {
  enum class Kind { kReadWrite, kReadOnly, kFailed };
  Kind kind = Kind::kFailed;
  uint32_t aborts = 0;  // aborted attempts before the final one
  /// Optional extra read-latency sample (wire_durable: BEGIN sent ->
  /// read EXEC answered); 0 = none.
  uint64_t read_ns = 0;
  /// False: counted, but its latency joins no latency class.
  bool timed = true;
};

/// The window is measured in sub-windows of kSubWindowS seconds, each with
/// its own counts and the share of all CPUs' time the hypervisor stole
/// from this machine during it (host steal, read from /proc/stat).
constexpr double kSubWindowS = 0.5;

struct SubWindow {
  double seconds = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;
  uint64_t aborts = 0;
  double steal = 0;
};

/// One latency sample: when the transaction completed, and how long it took.
struct Sample {
  uint64_t end_ns;
  uint64_t lat_ns;
};

struct WindowResult {
  uint64_t start_ns = 0;
  uint64_t sub_ns = 0;  // length of every sub-window but possibly the last
  std::vector<SubWindow> subs;
  /// Read-write (begin -> acknowledged commit, retries included) and
  /// read-only latencies, in completion order.
  std::vector<Sample> rw, ro;

  /// The whole window as one sub-window (steal weighted by length).
  SubWindow Total() const;
  uint64_t logical() const {
    SubWindow t = Total();
    return t.committed + t.failed;
  }
  uint64_t attempts() const { return logical() + Total().aborts; }
  /// Sub-window of a completion time.
  size_t SubOf(uint64_t end_ns) const;
};

/// Sub-windows in which the host stole more than kCleanSteal of the CPU
/// time are left out of the reported figures: stolen time slows every
/// workload by several times its own share (a stolen vCPU stalls every
/// transaction waiting on the thread it ran, such as a log flusher), which
/// is the machine's noise and not the program's. If fewer than half the
/// sub-windows are clean, the least stolen half is kept. The choice looks
/// only at steal, never at the measured figures. A stall of the program's
/// own that waits (for log space, a lock, a flush) leaves CPUs idle, and
/// idle CPUs are not stolen from, so such a stall stays in the figures.
constexpr double kCleanSteal = 0.02;

/// The reported part of a window: the kept sub-windows' counts, the raw
/// latency samples of the transactions that completed in them, and the
/// steal shares over the whole window and over the kept part.
struct Summary {
  double seconds = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;
  uint64_t aborts = 0;
  std::vector<uint64_t> rw_ns, ro_ns;
  double kept_share = 0;  // kept time / window time
  double steal = 0;
  double kept_steal = 0;

  /// Commits acknowledged in the kept sub-windows / their length.
  double tps() const { return seconds > 0 ? committed / seconds : 0; }
  uint64_t attempts() const { return committed + failed + aborts; }
};
Summary Summarize(const WindowResult& w);

/// A transaction body: runs one logical transaction for `client` (retrying
/// aborts itself), tracing under txn id `txn`.
using TxnBody =
    std::function<TxnOutcome(int client, Rng& rng, Tracer& tr, uint64_t txn)>;

/// Runs `clients` closed-loop threads for `seconds`. Each thread owns one
/// Rng (seeded from `seed` and its index) and one Tracer (kept in
/// `tracers`, one per client, when `trace`). Only transactions acknowledged
/// inside the window count; one in flight at the deadline is finished but
/// not counted. The calling thread reads the host steal of every
/// sub-window.
WindowResult RunWindow(int clients, double seconds, uint64_t seed,
                       bool trace, const TxnBody& body,
                       std::vector<Tracer>* tracers);

/// Nearest-rank percentile of raw samples (sorts in place); 0 if empty.
double PercentileNs(std::vector<uint64_t>* samples, double pct);

// ---------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Metrics {
 public:
  void Add(std::string name, double value, std::string unit) {
    items_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// Prints the result line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":v,"unit":u},...}} with full-precision values.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const Metrics& metrics);

/// Restarts the peak resident set size from the current one, so that
/// PeakRssMb() covers only what follows (not the set-ups torn down before).
/// Freed memory is not trimmed first: the page faults of handing it back
/// and faulting it in again cost the window up to a third of its throughput.
void ResetPeakRss();

/// Peak resident set size of this process since ResetPeakRss(), in MiB.
double PeakRssMb();

/// Median of repeated measurements.
double Median(std::vector<double> v);

/// Smallest of repeated timings of identical work, whose noise (other
/// guests on the host, page faults) only ever adds time; 0 if empty.
double Fastest(const std::vector<double>& v);

// --------------------------------------------------------------- counters

/// Every layer's public counters at one instant.
struct Counters {
  uint64_t t_ns = 0;
  Database::Stats db{};
  CommitPipeline::Stats pipeline{};
  LogManager::Stats log[kNumEngines]{};
  uint64_t lock_waits = 0, lock_timeouts = 0, deadlocks = 0;
  uint64_t pool_hits = 0, pool_misses = 0;
  ParkingLot::Stats parking{};
  bool has_server = false;
  server::Server::Stats server{};
};

Counters Snapshot(Database* db, const server::Server* srv = nullptr);

/// Counter deltas over [a, b] as per-layer metrics. Per-commit ratios use
/// the whole window's committed transactions as their base, per-txn ratios
/// its attempts; each metric's unit names its base.
void AddCounterMetrics(const Counters& a, const Counters& b,
                       const WindowResult& w, Metrics* out);

/// Span-derived per-layer metrics (p50 durations and self times) over the
/// spans of every tracer.
void AddSpanMetrics(const std::vector<Tracer>& tracers, Metrics* out);

/// Writes each client's first kSpansWrittenPerClient spans (whole
/// transactions only) to `path` as JSON lines, with their self times.
constexpr size_t kSpansWrittenPerClient = 5000;
bool WriteSpans(const std::vector<Tracer>& tracers, const std::string& path);

/// The end-to-end metric set shared by every workload, from the reported
/// part of the untraced window.
void AddEndToEndMetrics(double setup_s, const Summary& s,
                        double peak_rss_mb, double recovery_us, Metrics* out);

/// Transactions recorded in the database's logs: distinct gtids with a
/// commit or commit-end record across both engines.
uint64_t CountLoggedTxns(Database* db);

/// One table of a database, as needed to re-create it.
struct TableSpec {
  std::string name;
  EngineKind home;
  size_t max_value_size;
};

/// Restart of an in-memory database: copies both engines' logs into fresh
/// in-memory devices, opens a new Database on them with `options`,
/// re-creates `tables` and times Recover(). `db` is null on failure.
/// Restarts per run; recovery_us_per_txn is the fastest, since each
/// replays the same log (on a 4-vCPU VM, micro_cross's restarts within one
/// run took 3.4-5.2 us/txn, while the fastest of each run stayed within 7%
/// across four runs).
constexpr int kRestarts = 3;

struct Restart {
  std::unique_ptr<Database> db;
  double recover_s = 0;
  uint64_t logged_txns = 0;
};
Restart RestartInMemory(Database* live, DatabaseOptions options,
                        const std::vector<TableSpec>& tables);

/// Order-independent digest of every visible row of `table` (row count and
/// a hash of keys and values), read in one snapshot transaction.
bool TableDigest(Database* db, const TableHandle& table, uint64_t* rows,
                 uint64_t* hash);

// ------------------------------------------------------------------ pairs

/// Row format of the pair workloads: a 64-byte value whose first 8 bytes
/// are a little-endian counter and the rest a key-derived filler.
constexpr size_t kPairValueSize = 64;
Key PairKey(uint64_t k);
std::string PairValue(uint64_t k, uint64_t counter);
uint64_t PairCounter(const std::string& value);

/// Creates the pair tables ("pair_mem" in memdb, "pair_stor" in stordb) and
/// loads `rows` equal pairs with counters drawn from `seed`, in batches of
/// 1000 from one loader, which has nothing to conflict with. `*sum` is the
/// sum of the counters. False on any failure.
bool LoadPairs(Database* db, uint64_t rows, uint64_t seed, TableHandle* mem,
               TableHandle* stor, uint64_t* sum);

/// A workload's result; `correct` is false (and stderr says why) when an
/// output check failed.
struct WorkloadRun {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics metrics;
};

/// The measured part of a run, after a warm-up of kWarmupS seconds of the
/// same transactions. Untraced: one window of `seconds`, which gives the
/// end-to-end metrics. Traced: an untraced half whose counter
/// deltas give the per-layer counters, then a traced half whose spans give
/// the span metrics; their throughput difference is the tracing overhead.
constexpr double kWarmupS = 1.0;
struct Measurement {
  WindowResult window;  // the untraced window
  Summary summary;      // its reported part
  Metrics layer;        // traced runs only
  double peak_rss_mb = 0;  // over the window(s), before any restart
};
Measurement Measure(const RunArgs& args, int clients, Database* db,
                    const server::Server* srv, const TxnBody& body);

/// Builds the run's result from a measurement: end-to-end metrics when
/// untraced, per-layer ones when traced.
WorkloadRun Finish(const RunArgs& args, bool correct, double setup_s,
                   double recovery_us, Measurement* m);

}  // namespace skeena::perfbench

#endif  // SKEENA_PERFBENCH_HARNESS_H_
