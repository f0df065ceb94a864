// perfbench_run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload of the repository benchmark and prints, as its last
// stdout line, the JSON result described in run.py. Exit status 0 means
// every output check passed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/workloads.h"

using namespace skeena::perfbench;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_run --workload micro_cross|tpcc_storres|"
               "wire_durable --seed N --seconds S --trace 0|1 "
               "[--trace-dir DIR] [--data-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--trace-dir") {
      args.trace_dir = v;
    } else if (flag == "--data-dir") {
      args.data_dir = v;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || args.seconds <= 0) return Usage();

  WorkloadRun run;
  if (args.workload == "micro_cross") {
    run = RunMicroCross(args);
  } else if (args.workload == "tpcc_storres") {
    run = RunTpccStorres(args);
  } else if (args.workload == "wire_durable") {
    run = RunWireDurable(args);
  } else {
    return Usage();
  }
  PrintResult(run.correct, run.attempted, run.failed, run.metrics);
  return run.correct ? 0 : 1;
}
