#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The four serving workloads. Every request line is generated here from
// the workload seed; the server only ever sees these lines.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One unit sent on the wire: a single request/delta document or a
/// `groupform.batch/1` envelope, as its canonical JSON line.
struct Item {
  std::string line;
  /// Request-mix label ("greedy", "capgreedy", "read", "miss", ...).
  std::string kind;
  bool batch = false;
};

/// One generator connection. Closed loop cycles through `items`; open
/// loop sends them once, in order, `rate_rps` per second, the first
/// `phase_ms` after the window opens.
struct Connection {
  bool binary = false;
  double rate_rps = 0.0;
  double phase_ms = 0.0;
  std::vector<Item> items;
};

struct Workload {
  std::string name;
  std::string why;
  bool open_loop = false;
  /// Served by a scatter broker over `fleet_workers` serverd workers.
  bool fleet = false;
  int fleet_workers = 0;
  /// Pool threads per server process (serverd --threads; for the fleet,
  /// the broker's pool and each worker's).
  int server_threads = 1;
  /// Instance cache budget in MB (serverd --cache-mb).
  long long cache_mb = 256;
  /// Per-stream pipelining window and binary credit window.
  int max_inflight = 4;
  /// One request per resident instance: set-up ends when all answered.
  std::vector<std::string> setup_lines;
  std::vector<Connection> connections;
};

/// Builds workload `name` from `seed`. `seconds` sizes open-loop
/// schedules; `smoke` shrinks every instance for the self-test. Returns
/// false for an unknown name.
bool MakeWorkload(const std::string& name, std::uint64_t seed,
                  double seconds, bool smoke, Workload* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
