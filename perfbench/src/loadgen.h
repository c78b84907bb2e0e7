#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

// The single-process load generator: one thread per closed-loop
// connection, a sender and a receiver thread per open-loop connection.

#include <cstddef>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct Sample {
  int conn = 0;
  /// Index into the connection's items.
  std::size_t item = 0;
  /// Closed loop: from send to reply. Open loop: from the scheduled send
  /// time to reply. +infinity when the transport failed.
  double latency_ms = 0.0;
  /// Open loop: how late the generator sent (actual - scheduled).
  double lateness_ms = 0.0;
  /// Reply time, from the start of the window.
  double done_ms = 0.0;
  bool transport_ok = true;
  std::string response;
};

struct LoadResult {
  std::vector<Sample> samples;
  /// From the window start to the last reply.
  double elapsed_s = 0.0;
  std::vector<std::string> errors;
};

/// Drives every connection of `w` against 127.0.0.1:`port` for `seconds`.
/// Closed loop cycles each connection's items from the start; open loop
/// sends each connection's items on its fixed schedule until the window
/// ends, then waits for the outstanding replies.
LoadResult RunLoad(const Workload& w, int port, double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
