#ifndef SKEENA_PERFBENCH_WORKLOADS_H_
#define SKEENA_PERFBENCH_WORKLOADS_H_

// The benchmark's three workloads (see run.py for why each exists), plus
// the pieces of micro_cross and wire_durable that the self-test drives.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "server/client.h"

namespace skeena::perfbench {

WorkloadRun RunMicroCross(const RunArgs& args);
WorkloadRun RunTpccStorres(const RunArgs& args);
WorkloadRun RunWireDurable(const RunArgs& args);

// ------------------------------------------------------------ micro_cross

struct MicroCrossOptions {
  uint64_t rows = 100000;
  bool enable_skeena = true;
};

/// Two tables of `rows` pairs, pair k = (mem[k], stor[k]), equal at load.
struct PairDb {
  std::unique_ptr<Database> db;
  TableHandle mem, stor;
  uint64_t rows = 0;
};

PairDb SetupMicroCross(const MicroCrossOptions& options, uint64_t seed);

/// Half read-only (read both halves, compare), half read-write (read both,
/// write both +1). A read that sees unequal halves bumps `*torn`.
TxnBody MicroCrossBody(PairDb* pairs, std::atomic<uint64_t>* torn);

/// Reads every pair in one snapshot; false (with `*why`) if any pair is
/// torn. `*sum` is the sum of the mem-side counters.
bool CheckAllPairs(Database* db, const TableHandle& mem,
                   const TableHandle& stor, uint64_t rows, uint64_t* sum,
                   std::string* why);

// ----------------------------------------------------------- wire_durable

/// The closed-loop SKNA client transaction: BEGIN pipelined with an EXEC
/// reading pair k, an EXEC writing both halves +1, then COMMIT. Aborts are
/// retried. Each client needs its own connection in `conns` (with the two
/// tables opened as tokens 0 = mem, 1 = stor); `*acked` counts every
/// acknowledged commit, inside the window or not.
TxnBody WireBody(std::vector<std::unique_ptr<server::Client>>* conns,
                 uint64_t rows, std::atomic<uint64_t>* acked,
                 std::atomic<uint64_t>* torn);

}  // namespace skeena::perfbench

#endif  // SKEENA_PERFBENCH_WORKLOADS_H_
