// Reproduces the Section 6.9 abort-rate study: memory-resident TPC-C with
// per-connection home warehouses (low contention, so Skeena's snapshot
// selection and commit check dominate the abort budget), comparing the
// single-engine baselines against the recommended cross-engine schemes —
// plus the read-write microbenchmark where the paper reports up to ~5%
// additional Skeena aborts.
//
// Expected shape: baselines ~sub-1%; cross-engine schemes add only a small
// delta (paper: +0.3% TPC-C); the micro cross-engine mix shows a larger
// but bounded Skeena-attributed share. Every row also splits the commit
// check's aborts by the Algorithm 2 condition that fired (reader tie, low
// bound, high bound, sealed partition), as % of attempts.

#include "bench/common/bench_harness.h"

namespace skeena::bench {
namespace {

// Commit-check aborts by cause over one cell, from the CSR counter deltas
// around the run, as % of the cell's attempts.
void SetCommitAbortCauses(ResultMatrix* m, const std::string& row,
                          const SnapshotRegistry::Stats& before,
                          const SnapshotRegistry::Stats& after,
                          const RunResult& r) {
  double attempts =
      static_cast<double>(r.commits + r.engine_aborts + r.skeena_aborts);
  auto pct = [attempts](uint64_t b, uint64_t a) {
    return attempts == 0 ? 0.0 : static_cast<double>(a - b) * 100.0 / attempts;
  };
  m->Set(row, "reader tie %", pct(before.reader_tie, after.reader_tie));
  m->Set(row, "low bound %", pct(before.low_bound, after.low_bound));
  m->Set(row, "high bound %", pct(before.high_bound, after.high_bound));
  m->Set(row, "sealed %", pct(before.sealed, after.sealed));
}

void Run() {
  BenchScale scale = BenchScale::FromEnv();
  int conns = scale.connections.back();
  const auto& order = Tpcc::PlacementOrder();

  auto matrix = std::make_shared<ResultMatrix>(
      "Section 6.9: TPC-C abort rates (%), memory-resident, " +
          std::to_string(conns) + " connections",
      "Scheme");

  struct Scheme {
    std::string label;
    bool skeena_on;
    std::set<std::string> mem_tables;
  };
  std::vector<Scheme> schemes;
  schemes.push_back({"InnoDB (baseline)", false, {}});
  {
    Scheme ermia{"ERMIA (baseline)", false, {}};
    for (const auto& t : order) ermia.mem_tables.insert(t);
    schemes.push_back(ermia);
  }
  schemes.push_back({"New-Order-Opt", true, {"customer", "item"}});
  schemes.push_back({"Payment-Opt", true, {"customer"}});
  {
    Scheme archive{"Archive", true, {}};
    for (const auto& t : order) {
      if (t != "history") archive.mem_tables.insert(t);
    }
    schemes.push_back(archive);
  }

  for (const auto& scheme : schemes) {
    RegisterCell("AbortRate/TPCC/" + scheme.label, [=] {
      TpccConfig cfg = ScaledTpccConfig(TpccConfig{}, scale);
      cfg.skeena_on = scheme.skeena_on;
      cfg.mem_tables = scheme.mem_tables;
      cfg.fixed_home_warehouse = true;  // memory-resident low-contention
      cfg.pool_fraction = 2.0;
      cfg.warehouses = std::max(cfg.warehouses, std::min(conns, 16));
      Tpcc tpcc(cfg);
      auto before = tpcc.db()->csr().stats();
      RunResult r = RunWorkload(conns, scale.duration_ms,
                                [&tpcc](int tid, Rng& rng, uint64_t* q) {
                                  return tpcc.RunMix(tid, rng, q);
                                });
      matrix->Set(scheme.label, "total abort %", r.AbortRate() * 100.0);
      matrix->Set(scheme.label, "skeena abort %",
                  r.SkeenaAbortRate() * 100.0);
      SetCommitAbortCauses(matrix.get(), scheme.label, before,
                           tpcc.db()->csr().stats(), r);
      matrix->Set(scheme.label, "TPS", r.Tps());
      return r;
    });
  }

  // Read-write microbenchmark companion (the "up to ~5%" remark).
  auto micro_matrix = std::make_shared<ResultMatrix>(
      "Section 6.9 companion: read-write micro abort rates (%)", "Scheme");
  MicroCache cache;
  struct MicroRow {
    std::string label;
    bool skeena_on;
    int stor_pct;
  };
  std::vector<MicroRow> micro_rows = {{"ERMIA", false, 0},
                                      {"50% InnoDB", true, 50},
                                      {"InnoDB", false, 100}};
  for (const auto& row : micro_rows) {
    RegisterCell("AbortRate/Micro/" + row.label, [=, &cache] {
      MicroConfig cfg = ScaledMicroConfig(MicroConfig{}, scale);
      cfg.read_pct = 80;
      cfg.stor_pct = row.stor_pct;
      cfg.pool_fraction = 2.0;
      MicroWorkload* wl = cache.Get(cfg, row.skeena_on);
      auto before = wl->db()->csr().stats();
      RunResult r = RunWorkload(conns, scale.duration_ms,
                                [wl](int t, Rng& rng, uint64_t* q) {
                                  return wl->RunOneTxn(t, rng, q);
                                });
      micro_matrix->Set(row.label, "total abort %", r.AbortRate() * 100.0);
      micro_matrix->Set(row.label, "skeena abort %",
                        r.SkeenaAbortRate() * 100.0);
      SetCommitAbortCauses(micro_matrix.get(), row.label, before,
                           wl->db()->csr().stats(), r);
      return r;
    });
  }

  ::benchmark::RunSpecifiedBenchmarks();
  matrix->Print(2);
  micro_matrix->Print(2);
}

}  // namespace
}  // namespace skeena::bench

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  skeena::bench::Run();
  return 0;
}
