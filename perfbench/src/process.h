#ifndef PERFBENCH_PROCESS_H_
#define PERFBENCH_PROCESS_H_

// Server processes under test: spawn, wait for the bound port, stop, and
// read their CPU time and peak RSS from /proc.

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

/// Makes this process the reaper of orphaned descendants, so workers a
/// broker forked are waited for even if the broker dies first.
void BecomeSubreaper();

/// A spawned server process (serverd or brokerd) and, for brokerd, the
/// workers it forks. Stops the whole tree on destruction.
class ServerProcess {
 public:
  /// Spawns `argv` with `--port 0 --port-file <run_dir>/...` appended and
  /// stderr sent to a log in `run_dir`, then waits until the port file
  /// names the bound port. Returns false (with `error`) on failure.
  bool Start(const std::vector<std::string>& argv, const std::string& run_dir,
             std::string* error);
  ~ServerProcess();

  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }

  /// The process and every live descendant.
  std::vector<pid_t> Tree() const;
  /// utime + stime summed over Tree(), in seconds.
  double CpuSeconds() const;
  /// VmHWM summed over Tree(), in MiB.
  double PeakRssMb() const;

  /// SIGTERM to the tree, wait, SIGKILL whatever is left after a grace
  /// period, and reap every descendant.
  void Stop();

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROCESS_H_
