#ifndef PERFBENCH_RUNS_H_
#define PERFBENCH_RUNS_H_

// The two kinds of run: end to end (real server processes, untraced) and
// traced (an in-process server with timing wrappers, plus per-layer
// replays and probes). Each prints metric lines and, last, the JSON result.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "process.h"
#include "workloads.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory holding groupform_serverd and groupform_brokerd.
  std::string bin_dir;
  /// Working directory for port files, server logs, and span dumps.
  std::string run_dir;
  /// Tiny instances, for the self-test.
  bool smoke = false;
  /// Flip one byte of the first reference response (self-test of the gate).
  bool corrupt_reference = false;
};

/// Returns the process exit code: 0 when every response was correct.
int RunEndToEnd(const Workload& w, const Options& options);
int RunTraced(const Workload& w, const Options& options);

/// Prints the workload header, request-mix counts of the generated lines,
/// and the load-validity guard (generator connections plus server pool
/// threads against nproc).
void PrintPreamble(const Workload& w, const Options& options);

/// Server pool threads the workload runs with, summed over processes.
int ServerThreads(const Workload& w);

/// Spawns `count` fleet workers (groupform_serverd processes with the
/// workload's pool size and cache budget).
bool StartWorkers(const Workload& w, int count, const Options& options,
                  std::vector<std::unique_ptr<ServerProcess>>* workers,
                  std::string* error);

/// Median of this many set-ups is `setup_s`.
inline constexpr int kSetupRuns = 5;

}  // namespace perfbench

#endif  // PERFBENCH_RUNS_H_
