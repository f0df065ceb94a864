#include "perfbench/harness.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <thread>

#include "log/log_manager.h"
#include "log/log_records.h"

namespace skeena::perfbench {

// ------------------------------------------------------------ closed loop

namespace {

// Aggregate CPU time counters of /proc/stat: {steal, total}, in ticks.
std::pair<uint64_t, uint64_t> CpuTicks() {
  uint64_t v[10] = {};
  if (FILE* f = std::fopen("/proc/stat", "r")) {
    if (std::fscanf(f,
                    "cpu %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64
                    " %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64,
                    &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                    &v[7]) != 8) {
      v[7] = 0;
    }
    std::fclose(f);
  }
  uint64_t total = 0;
  for (uint64_t x : v) total += x;
  return {v[7], total};
}

double StealShare(std::pair<uint64_t, uint64_t> a,
                  std::pair<uint64_t, uint64_t> b) {
  return b.second > a.second ? static_cast<double>(b.first - a.first) /
                                   static_cast<double>(b.second - a.second)
                             : 0;
}

// One client's results. Only transactions that began and completed inside
// the window count; the rest are discarded.
struct ClientResult {
  std::vector<SubWindow> subs;
  std::vector<Sample> rw, ro;
};

}  // namespace

SubWindow WindowResult::Total() const {
  SubWindow t;
  for (const SubWindow& s : subs) {
    t.seconds += s.seconds;
    t.committed += s.committed;
    t.failed += s.failed;
    t.aborts += s.aborts;
    t.steal += s.steal * s.seconds;
  }
  if (t.seconds > 0) t.steal /= t.seconds;
  return t;
}

size_t WindowResult::SubOf(uint64_t end_ns) const {
  size_t i = sub_ns > 0 ? static_cast<size_t>((end_ns - start_ns) / sub_ns) : 0;
  return std::min(i, subs.size() - 1);
}

WindowResult RunWindow(int clients, double seconds, uint64_t seed,
                       bool trace, const TxnBody& body,
                       std::vector<Tracer>* tracers) {
  WindowResult w;
  const uint64_t window_ns = static_cast<uint64_t>(seconds * 1e9);
  w.sub_ns = std::min(window_ns, static_cast<uint64_t>(kSubWindowS * 1e9));
  const size_t n_subs =
      static_cast<size_t>((window_ns + w.sub_ns - 1) / w.sub_ns);
  w.subs.resize(n_subs);
  for (size_t i = 0; i < n_subs; ++i) {
    uint64_t end = std::min<uint64_t>(window_ns, (i + 1) * w.sub_ns);
    w.subs[i].seconds = static_cast<double>(end - i * w.sub_ns) / 1e9;
  }

  std::vector<ClientResult> results(static_cast<size_t>(clients));
  tracers->clear();
  for (int c = 0; c < clients; ++c) tracers->emplace_back(trace);

  std::atomic<uint64_t> start_ns{0};
  std::barrier sync(clients, [&]() noexcept { start_ns.store(NowNs()); });

  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(seed * 1000003 + static_cast<uint64_t>(c) + 1);
      ClientResult& r = results[static_cast<size_t>(c)];
      r.subs.resize(n_subs);
      r.rw.reserve(1 << 17);
      r.ro.reserve(1 << 17);
      Tracer& tr = (*tracers)[static_cast<size_t>(c)];
      sync.arrive_and_wait();
      const uint64_t begin = start_ns.load();
      const uint64_t deadline = begin + window_ns;
      uint64_t txn_id = static_cast<uint64_t>(c) << 48;
      for (;;) {
        uint64_t t0 = NowNs();
        if (t0 >= deadline) break;
        size_t mark = tr.size();
        TxnOutcome out = body(c, rng, tr, ++txn_id);
        uint64_t t1 = NowNs();
        if (t1 > deadline) {  // straddles the end: not part of the window
          tr.Truncate(mark);
          break;
        }
        SubWindow& sub =
            r.subs[std::min<size_t>((t1 - begin) / w.sub_ns, n_subs - 1)];
        sub.aborts += out.aborts;
        switch (out.kind) {
          case TxnOutcome::Kind::kFailed:
            ++sub.failed;
            break;
          case TxnOutcome::Kind::kReadOnly:
            ++sub.committed;
            if (out.timed) r.ro.push_back({t1, t1 - t0});
            break;
          case TxnOutcome::Kind::kReadWrite:
            ++sub.committed;
            if (out.timed) r.rw.push_back({t1, t1 - t0});
            break;
        }
        if (out.read_ns != 0) r.ro.push_back({t1, out.read_ns});
      }
    });
  }

  // Host steal of each sub-window, read at its boundaries.
  while (start_ns.load() == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  w.start_ns = start_ns.load();
  auto ticks = CpuTicks();
  for (size_t i = 0; i < n_subs; ++i) {
    uint64_t end =
        w.start_ns + std::min<uint64_t>(window_ns, (i + 1) * w.sub_ns);
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(end)));
    auto next = CpuTicks();
    w.subs[i].steal = StealShare(ticks, next);
    ticks = next;
  }
  for (auto& t : threads) t.join();

  for (ClientResult& r : results) {
    for (size_t i = 0; i < n_subs; ++i) {
      w.subs[i].committed += r.subs[i].committed;
      w.subs[i].failed += r.subs[i].failed;
      w.subs[i].aborts += r.subs[i].aborts;
    }
    w.rw.insert(w.rw.end(), r.rw.begin(), r.rw.end());
    w.ro.insert(w.ro.end(), r.ro.begin(), r.ro.end());
  }
  auto by_end = [](const Sample& x, const Sample& y) {
    return x.end_ns < y.end_ns;
  };
  std::sort(w.rw.begin(), w.rw.end(), by_end);
  std::sort(w.ro.begin(), w.ro.end(), by_end);
  return w;
}

namespace {

// The sub-windows whose figures are reported (see kCleanSteal).
std::vector<bool> KeptSubWindows(const std::vector<SubWindow>& subs) {
  size_t clean = 0;
  for (const SubWindow& s : subs) clean += s.steal <= kCleanSteal;
  const size_t half = (subs.size() + 1) / 2;
  std::vector<bool> kept(subs.size());
  if (clean >= half) {
    for (size_t i = 0; i < subs.size(); ++i) {
      kept[i] = subs[i].steal <= kCleanSteal;
    }
    return kept;
  }
  std::vector<size_t> order(subs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    return subs[x].steal < subs[y].steal;
  });
  for (size_t i = 0; i < half; ++i) kept[order[i]] = true;
  return kept;
}

}  // namespace

Summary Summarize(const WindowResult& w) {
  Summary s;
  const std::vector<bool> kept = KeptSubWindows(w.subs);
  double kept_stolen = 0;
  for (size_t i = 0; i < w.subs.size(); ++i) {
    const SubWindow& sub = w.subs[i];
    if (!kept[i]) continue;
    s.seconds += sub.seconds;
    s.committed += sub.committed;
    s.failed += sub.failed;
    s.aborts += sub.aborts;
    kept_stolen += sub.steal * sub.seconds;
  }
  for (const Sample& x : w.rw) {
    if (kept[w.SubOf(x.end_ns)]) s.rw_ns.push_back(x.lat_ns);
  }
  for (const Sample& x : w.ro) {
    if (kept[w.SubOf(x.end_ns)]) s.ro_ns.push_back(x.lat_ns);
  }
  const SubWindow total = w.Total();
  s.kept_share = total.seconds > 0 ? s.seconds / total.seconds : 0;
  s.steal = total.steal;
  s.kept_steal = s.seconds > 0 ? kept_stolen / s.seconds : 0;
  return s;
}

double PercentileNs(std::vector<uint64_t>* samples, double pct) {
  if (samples->empty()) return 0;
  std::sort(samples->begin(), samples->end());
  size_t n = samples->size();
  size_t rank = static_cast<size_t>(pct / 100.0 * static_cast<double>(n));
  if (rank >= n) rank = n - 1;
  return static_cast<double>((*samples)[rank]);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Fastest(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

void ResetPeakRss() {
  // "5" resets the peak RSS (VmHWM) to the current RSS (proc(5)).
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double PeakRssMb() {
  double kib = 0;
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
    }
    std::fclose(f);
  }
  return kib / 1024.0;
}

// ---------------------------------------------------------------- output

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.items()) {
    char buf[64];
    double v = std::isfinite(m.value) ? m.value : 0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::fflush(stderr);
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void AddEndToEndMetrics(double setup_s, const Summary& s,
                        double peak_rss_mb, double recovery_us, Metrics* out) {
  std::vector<uint64_t> rw = s.rw_ns, ro = s.ro_ns;
  out->Add("setup_s", setup_s, "s");
  out->Add("throughput_tps", s.tps(), "1/s");
  out->Add("commit_p50_ms", PercentileNs(&rw, 50) / 1e6, "ms");
  out->Add("commit_p99_ms", PercentileNs(&rw, 99) / 1e6, "ms");
  out->Add("read_p50_ms", PercentileNs(&ro, 50) / 1e6, "ms");
  out->Add("read_p99_ms", PercentileNs(&ro, 99) / 1e6, "ms");
  double attempts = static_cast<double>(s.attempts());
  out->Add("abort_ratio",
           attempts > 0 ? static_cast<double>(s.aborts + s.failed) / attempts
                        : 0,
           "ratio");
  out->Add("peak_rss_mb", peak_rss_mb, "MiB");
  out->Add("recovery_us_per_txn", recovery_us, "us");
}

// --------------------------------------------------------------- counters

Counters Snapshot(Database* db, const server::Server* srv) {
  Counters c;
  c.t_ns = NowNs();
  c.db = db->stats();
  c.pipeline = db->pipeline().stats();
  for (int e = 0; e < kNumEngines; ++e) c.log[e] = db->engine(e)->Log()->stats();
  stordb::StorEngine* stor = db->stor()->engine();
  c.lock_waits = stor->lock_manager()->waits();
  c.lock_timeouts = stor->lock_manager()->timeouts();
  c.deadlocks = stor->lock_manager()->deadlocks();
  c.pool_hits = stor->pool()->hits();
  c.pool_misses = stor->pool()->misses();
  c.parking = ParkingLot::stats();
  if (srv != nullptr) {
    c.has_server = true;
    c.server = srv->stats();
  }
  return c;
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void AddCounterMetrics(const Counters& a, const Counters& b,
                       const WindowResult& w, Metrics* out) {
  const double secs = static_cast<double>(b.t_ns - a.t_ns) / 1e9;
  const double commits = static_cast<double>(w.Total().committed);
  const double attempts = static_cast<double>(w.attempts());
  auto d = [](uint64_t x, uint64_t y) { return static_cast<double>(y - x); };

  // server
  double frames = b.has_server ? d(a.server.frames_in, b.server.frames_in) +
                                     d(a.server.frames_out, b.server.frames_out)
                               : 0;
  out->Add("server.frames_per_txn", Ratio(frames, commits), "frames/commit");
  out->Add("server.protocol_errors",
           b.has_server ? d(a.server.protocol_errors, b.server.protocol_errors)
                        : 0,
           "count");
  out->Add("server.orphan_aborts",
           b.has_server ? d(a.server.txns_aborted_on_disconnect,
                            b.server.txns_aborted_on_disconnect)
                        : 0,
           "count");

  // core/csr
  double accesses = d(a.db.csr.accesses, b.db.csr.accesses);
  double mappings = d(a.db.csr.mappings, b.db.csr.mappings);
  out->Add("csr.hit_ratio", accesses > 0 ? 1.0 - mappings / accesses : 0,
           "hits/access");
  out->Add("csr.select_aborts_per_txn",
           Ratio(d(a.db.csr.select_aborts, b.db.csr.select_aborts), attempts),
           "1/attempt");
  out->Add("csr.commit_aborts_per_txn",
           Ratio(d(a.db.csr.commit_aborts, b.db.csr.commit_aborts), attempts),
           "1/attempt");

  // core/commit_pipeline
  const CommitPipeline::Stats& pa = a.pipeline;
  const CommitPipeline::Stats& pb = b.pipeline;
  double completed = d(pa.completed, pb.completed);
  out->Add("pipeline.parks_per_commit",
           Ratio(d(pa.waiter_parks, pb.waiter_parks), completed),
           "parks/completion");
  out->Add("pipeline.commits_per_drain",
           Ratio(d(pa.enqueued, pb.enqueued), d(pa.drain_batches, pb.drain_batches)),
           "enqueued/drain");
  out->Add("pipeline.wake_syscalls_per_commit",
           Ratio(d(pa.wake_syscalls, pb.wake_syscalls), completed),
           "wakes/completion");
  out->Add("pipeline.inline_share",
           Ratio(d(pa.completed_inline, pb.completed_inline), completed),
           "share");

  // log, one set per engine
  const char* names[kNumEngines] = {"log.mem.", "log.stor."};
  for (int e = 0; e < kNumEngines; ++e) {
    const LogManager::Stats& la = a.log[e];
    const LogManager::Stats& lb = b.log[e];
    std::string p = names[e];
    double flushes = d(la.flushes, lb.flushes);
    out->Add(p + "appends_per_commit", Ratio(d(la.appends, lb.appends), commits),
             "appends/commit");
    out->Add(p + "bytes_per_commit",
             Ratio(d(la.append_bytes, lb.append_bytes), commits), "B/commit");
    out->Add(p + "flushes_per_s", Ratio(flushes, secs), "1/s");
    out->Add(p + "commits_per_flush", Ratio(commits, flushes), "commits/flush");
    out->Add(p + "flush_gap_us",
             Ratio(d(la.flush_gap_ns_total, lb.flush_gap_ns_total), flushes) /
                 1e3,
             "us");
    out->Add(p + "window_changes_per_s",
             Ratio(d(la.window_grows, lb.window_grows) +
                       d(la.window_shrinks, lb.window_shrinks),
                   secs),
             "1/s");
    out->Add(p + "window_us", static_cast<double>(lb.window_us), "us");
    out->Add(p + "space_waits", d(la.space_waits, lb.space_waits), "count");
  }

  // memdb
  double mem_commits = d(a.db.mem.commits, b.db.mem.commits);
  double mem_aborts = d(a.db.mem.aborts, b.db.mem.aborts);
  out->Add("memdb.abort_share", Ratio(mem_aborts, mem_commits + mem_aborts),
           "aborts/subtxn");
  out->Add("memdb.pruned_per_commit",
           Ratio(d(a.db.mem.versions_pruned, b.db.mem.versions_pruned),
                 mem_commits),
           "versions/commit");

  // stordb (index, buffer pool, lock manager)
  double hits = d(a.pool_hits, b.pool_hits);
  double misses = d(a.pool_misses, b.pool_misses);
  out->Add("stordb.pool_hit_ratio", Ratio(hits, hits + misses), "hits/fetch");
  out->Add("stordb.write_backs_per_txn",
           Ratio(d(a.db.stor.pool_write_backs, b.db.stor.pool_write_backs),
                 attempts),
           "1/attempt");
  out->Add("stordb.lock_waits_per_txn",
           Ratio(d(a.lock_waits, b.lock_waits), attempts), "1/attempt");
  out->Add("stordb.lock_timeouts", d(a.lock_timeouts, b.lock_timeouts),
           "count");
  out->Add("stordb.deadlocks", d(a.deadlocks, b.deadlocks), "count");

  // common/parking_lot (process-wide)
  out->Add("parking.parks_per_commit",
           Ratio(d(a.parking.parks, b.parking.parks), commits), "parks/commit");
  out->Add("parking.wakes_per_commit",
           Ratio(d(a.parking.wakes, b.parking.wakes), commits), "wakes/commit");
}

// ------------------------------------------------------------------ spans

namespace {

// Self time of every span: its duration minus the union of its children.
std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0, cur_s = 0, cur_e = 0;
    bool open = false;
    for (auto [s, e] : iv) {
      s = std::max(s, spans[i].start_ns);
      e = std::min(e, spans[i].end_ns);
      if (e <= s) continue;
      if (open && s <= cur_e) {
        cur_e = std::max(cur_e, e);
      } else {
        if (open) covered += cur_e - cur_s;
        cur_s = s;
        cur_e = e;
        open = true;
      }
    }
    if (open) covered += cur_e - cur_s;
    uint64_t dur = spans[i].end_ns - spans[i].start_ns;
    self[i] = dur > covered ? dur - covered : 0;
  }
  return self;
}

bool Is(const Span& s, const char* name) {
  return std::strcmp(s.name, name) == 0;
}

}  // namespace

void AddSpanMetrics(const std::vector<Tracer>& tracers, Metrics* out) {
  std::map<std::string, std::vector<uint64_t>> groups;
  uint64_t total = 0;
  for (const Tracer& tr : tracers) {
    const auto& spans = tr.spans();
    std::vector<uint64_t> self = SelfTimes(spans);
    total += spans.size();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      uint64_t dur = s.end_ns - s.start_ns;
      if (s.parent < 0) groups["span.txn_self_us"].push_back(self[i]);
      if (Is(s, "db.begin")) groups["span.begin_us"].push_back(dur);
      if (Is(s, "txn.get") || Is(s, "txn.put")) {
        if (s.cross) {
          groups["span.cross_op_us"].push_back(dur);
        } else if (s.engine == 0) {
          groups["span.op_mem_us"].push_back(dur);
        } else {
          groups["span.op_stor_us"].push_back(dur);
        }
      }
      if (Is(s, "txn.commit")) groups["span.commit_us"].push_back(dur);
      if (Is(s, "rpc.exec_read") || Is(s, "rpc.exec_write")) {
        groups["span.rpc_exec_us"].push_back(dur);
      }
      if (Is(s, "rpc.commit")) groups["span.rpc_commit_us"].push_back(dur);
      if (std::strncmp(s.name, "tpcc.", 5) == 0) {
        groups[std::string("span.") + s.name + "_us"].push_back(dur);
      }
    }
  }
  static const char* kSpanMetrics[] = {
      "span.begin_us",          "span.op_mem_us",
      "span.op_stor_us",        "span.cross_op_us",
      "span.commit_us",         "span.txn_self_us",
      "span.rpc_exec_us",       "span.rpc_commit_us",
      "span.tpcc.new_order_us", "span.tpcc.payment_us",
      "span.tpcc.order_status_us", "span.tpcc.delivery_us",
      "span.tpcc.stock_level_us"};
  for (const char* name : kSpanMetrics) {
    auto it = groups.find(name);
    double p50 = it == groups.end() ? 0 : PercentileNs(&it->second, 50) / 1e3;
    out->Add(name, p50, "us");
  }
  out->Add("trace.spans", static_cast<double>(total), "count");
}

bool WriteSpans(const std::vector<Tracer>& tracers, const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t t = 0; t < tracers.size(); ++t) {
    const auto& spans = tracers[t].spans();
    std::vector<uint64_t> self = SelfTimes(spans);
    // Each client's first spans only: enough to inspect, small on disk.
    size_t n = std::min(spans.size(), kSpansWrittenPerClient);
    while (n > 0 && n < spans.size() && spans[n].parent >= 0) --n;
    for (size_t i = 0; i < n; ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "{\"client\":%zu,\"id\":%zu,\"name\":\"%s\",\"txn\":%" PRIu64
                   ",\"parent\":%d,\"engine\":%d,\"cross\":%s,\"start_ns\":%" PRIu64
                   ",\"end_ns\":%" PRIu64 ",\"self_ns\":%" PRIu64 "}\n",
                   t, i, s.name, s.txn, s.parent, s.engine,
                   s.cross ? "true" : "false", s.start_ns, s.end_ns, self[i]);
    }
  }
  return std::fclose(f) == 0;
}

// ------------------------------------------------------------ measurement

Measurement Measure(const RunArgs& args, int clients, Database* db,
                    const server::Server* srv, const TxnBody& body) {
  Measurement m;
  std::vector<Tracer> tracers;
  double secs = args.trace ? args.seconds / 2 : args.seconds;
  // Untimed warm-up, so that the window starts after the first touches of
  // fresh memory and caches.
  RunWindow(clients, kWarmupS, args.seed + 104729, false, body, &tracers);
  ResetPeakRss();
  Counters before = Snapshot(db, srv);
  m.window = RunWindow(clients, secs, args.seed, false, body, &tracers);
  Counters after = Snapshot(db, srv);
  m.peak_rss_mb = PeakRssMb();
  m.summary = Summarize(m.window);
  std::printf("%s host: %.1f%% of CPU time stolen during the window; "
              "reported %.0f%% of it, with %.1f%% stolen\n",
              args.workload.c_str(), 100 * m.summary.steal,
              100 * m.summary.kept_share, 100 * m.summary.kept_steal);
  // The adaptive group-commit windows can settle differently from run to
  // run; record where each log's ended up.
  for (int e = 0; e < kNumEngines; ++e) {
    std::printf("%s regime: log.%s %.0f flushes/s, final window_us %" PRIu64
                "\n",
                args.workload.c_str(), e == 0 ? "mem" : "stor",
                static_cast<double>(after.log[e].flushes -
                                    before.log[e].flushes) /
                    (static_cast<double>(after.t_ns - before.t_ns) / 1e9),
                after.log[e].window_us);
  }
  if (!args.trace) return m;

  AddCounterMetrics(before, after, m.window, &m.layer);
  WindowResult traced =
      RunWindow(clients, secs, args.seed + 7919, true, body, &tracers);
  AddSpanMetrics(tracers, &m.layer);
  m.layer.Add("trace.overhead_tps",
              Summarize(traced).tps() - m.summary.tps(), "1/s");
  m.layer.Add("samples.rw", static_cast<double>(m.summary.rw_ns.size()),
              "count");
  m.layer.Add("samples.ro", static_cast<double>(m.summary.ro_ns.size()),
              "count");
  m.layer.Add("host.steal_share", m.summary.steal, "share");
  m.layer.Add("host.reported_share", m.summary.kept_share, "share");
  std::string path = args.trace_dir + "/" + args.workload + ".jsonl";
  if (!WriteSpans(tracers, path)) {
    std::fprintf(stderr, "perfbench: could not write spans to %s\n",
                 path.c_str());
  }
  return m;
}

WorkloadRun Finish(const RunArgs& args, bool correct, double setup_s,
                   double recovery_us, Measurement* m) {
  WorkloadRun run;
  run.correct = correct;
  run.attempted = m->window.logical();
  run.failed = m->window.Total().failed;
  const Summary& s = m->summary;
  std::printf("%s: %" PRIu64 " rw samples, %" PRIu64
              " ro samples, %" PRIu64 " aborted attempts in the reported "
              "%.1f s of a %.1f s window\n",
              args.workload.c_str(), static_cast<uint64_t>(s.rw_ns.size()),
              static_cast<uint64_t>(s.ro_ns.size()), s.aborts, s.seconds,
              m->window.Total().seconds);
  if (args.trace) {
    run.metrics = std::move(m->layer);
  } else {
    AddEndToEndMetrics(setup_s, s, m->peak_rss_mb, recovery_us,
                       &run.metrics);
  }
  return run;
}

// ------------------------------------------------------------------- logs

uint64_t CountLoggedTxns(Database* db) {
  std::set<GlobalTxnId> gtids;
  for (int e = 0; e < kNumEngines; ++e) {
    const StorageDevice* dev = db->engine(e)->LogDevice();
    if (dev == nullptr) continue;
    LogReader reader(dev);
    std::string raw;
    while (reader.Next(&raw)) {
      LogRecord rec;
      if (!LogRecord::Decode(raw, &rec)) break;
      if (rec.type == LogRecordType::kCommit ||
          rec.type == LogRecordType::kCommitEnd) {
        gtids.insert(rec.gtid);
      }
    }
  }
  return gtids.size();
}

// ---------------------------------------------------------------- restart

Restart RestartInMemory(Database* live, DatabaseOptions options,
                        const std::vector<TableSpec>& tables) {
  Restart r;
  auto logs =
      std::make_shared<std::map<std::string, std::unique_ptr<MemDevice>>>();
  const std::pair<EngineKind, const char*> kLogs[] = {
      {EngineKind::kMem, "mem.log"}, {EngineKind::kStor, "stor.log"}};
  for (const auto& [kind, name] : kLogs) {
    const StorageDevice* src = live->engine(kind)->LogDevice();
    auto copy = std::make_unique<MemDevice>(options.log_latency);
    std::vector<uint8_t> buf(1 << 20);
    uint64_t size = src->Size();
    for (uint64_t off = 0; off < size;) {
      size_t n = static_cast<size_t>(std::min<uint64_t>(buf.size(), size - off));
      std::span<uint8_t> chunk(buf.data(), n);
      uint64_t at = 0;
      if (!src->ReadAt(off, chunk).ok() || !copy->Append(chunk, &at).ok()) {
        return r;
      }
      off += n;
    }
    (*logs)[name] = std::move(copy);
  }
  // The restarted database owns its logs; each is handed over once.
  options.log_device_factory = [logs](const std::string& name) {
    return std::unique_ptr<StorageDevice>(std::move(logs->at(name)));
  };
  options.data_dir.clear();
  auto db = std::make_unique<Database>(options);
  for (const TableSpec& t : tables) {
    if (!db->CreateTable(t.name, t.home, t.max_value_size).ok()) return r;
  }
  uint64_t t0 = NowNs();
  Status s = db->Recover();
  r.recover_s = static_cast<double>(NowNs() - t0) / 1e9;
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: Recover() failed: %s\n",
                 s.ToString().c_str());
    return r;
  }
  r.logged_txns = CountLoggedTxns(db.get());
  r.db = std::move(db);
  return r;
}

bool TableDigest(Database* db, const TableHandle& table, uint64_t* rows,
                 uint64_t* hash) {
  *rows = 0;
  *hash = 0;
  auto txn = db->Begin();
  Status s = txn->Scan(table, kMinKey, 0,
                       [&](const Key& key, const std::string& value) {
                         uint64_t h = 1469598103934665603ull;
                         for (uint8_t b : key) h = (h ^ b) * 1099511628211ull;
                         for (char c : value) {
                           h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ull;
                         }
                         *hash += h;  // order-independent
                         ++*rows;
                         return true;
                       });
  if (!s.ok()) return false;
  return txn->Commit().ok();
}

// ------------------------------------------------------------------ pairs

Key PairKey(uint64_t k) {
  KeyBuilder b;
  b.AppendU64(k);
  return b.Build();
}

std::string PairValue(uint64_t k, uint64_t counter) {
  std::string v(kPairValueSize, '\0');
  std::memcpy(v.data(), &counter, sizeof(counter));
  for (size_t i = sizeof(counter); i < kPairValueSize; ++i) {
    v[i] = static_cast<char>('a' + (k + i) % 26);
  }
  return v;
}

uint64_t PairCounter(const std::string& value) {
  uint64_t c = 0;
  if (value.size() >= sizeof(c)) std::memcpy(&c, value.data(), sizeof(c));
  return c;
}

bool LoadPairs(Database* db, uint64_t rows, uint64_t seed, TableHandle* mem,
               TableHandle* stor, uint64_t* sum) {
  auto m = db->CreateTable("pair_mem", EngineKind::kMem, kPairValueSize);
  auto s = db->CreateTable("pair_stor", EngineKind::kStor, kPairValueSize);
  if (!m.ok() || !s.ok()) return false;
  *mem = *m;
  *stor = *s;
  *sum = 0;
  Rng rng(seed);
  constexpr uint64_t kBatch = 1000;
  for (uint64_t base = 0; base < rows; base += kBatch) {
    auto txn = db->Begin();
    for (uint64_t k = base; k < std::min(rows, base + kBatch); ++k) {
      uint64_t c = rng.Uniform(1000);
      *sum += c;
      std::string v = PairValue(k, c);
      if (!txn->Put(*mem, PairKey(k), v).ok() ||
          !txn->Put(*stor, PairKey(k), v).ok()) {
        return false;
      }
    }
    if (!txn->Commit().ok()) return false;
  }
  return true;
}

}  // namespace skeena::perfbench
