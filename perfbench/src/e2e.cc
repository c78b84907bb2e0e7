// The end-to-end run: real groupform_serverd / groupform_brokerd processes
// over TCP, tracing off.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>

#include "common.h"
#include "conn.h"
#include "loadgen.h"
#include "process.h"
#include "reference.h"
#include "runs.h"
#include "serve/session.h"

namespace perfbench {
namespace {

namespace serve = groupform::serve;

/// An open-loop run whose generator sent its 99th-percentile request this
/// late (most of a send period of wire_churn's faster client) is invalid:
/// the offered rate was not the rate the server saw.
constexpr double kMaxLatenessP99Ms = 20.0;

std::vector<std::string> ServerdArgv(const Workload& w,
                                     const Options& options) {
  const std::string window = std::to_string(w.max_inflight);
  return {options.bin_dir + "/groupform_serverd",
          "--threads", std::to_string(w.server_threads),
          "--cache-mb", std::to_string(w.cache_mb),
          "--max-inflight", window,
          "--credits", window};
}

/// groupform_brokerd in scatter mode over `fleet_workers` serverd workers
/// it spawns itself; the broker and each worker get the workload's pool
/// size, and the workers its cache budget.
std::vector<std::string> BrokerdArgv(const Workload& w,
                                     const Options& options) {
  const std::string threads = std::to_string(w.server_threads);
  const std::string window = std::to_string(w.max_inflight);
  return {options.bin_dir + "/groupform_brokerd",
          "--workers", std::to_string(w.fleet_workers),
          "--mode", "scatter",
          "--threads", threads,
          "--worker-threads", threads,
          "--worker-cache-mb", std::to_string(w.cache_mb),
          "--max-inflight", window,
          "--credits", window};
}

/// Spawns the server (serverd, or brokerd with its workers) and sends
/// every set-up line; the elapsed time from the spawn to the last set-up
/// answer is one `setup_s` sample.
bool SetUp(const Workload& w, const Options& options, ServerProcess* server,
           double* seconds, std::string* error) {
  const Clock::time_point start = Clock::now();
  if (!server->Start(w.fleet ? BrokerdArgv(w, options)
                             : ServerdArgv(w, options),
                     options.run_dir, error)) {
    return false;
  }
  Conn conn;
  if (!conn.Open(server->port(), false, error)) return false;
  for (const std::string& line : w.setup_lines) {
    std::string response;
    if (!conn.Send(Item{line, "setup", false}, error) ||
        !conn.Receive(&response, error)) {
      return false;
    }
    if (response.find("\"state\":\"OK\"") == std::string::npos) {
      *error = "set-up request failed: " + response.substr(0, 300);
      return false;
    }
  }
  *seconds = MsBetween(start, Clock::now()) / 1000.0;
  return true;
}

}  // namespace

bool StartWorkers(const Workload& w, int count, const Options& options,
                  std::vector<std::unique_ptr<ServerProcess>>* workers,
                  std::string* error) {
  for (int i = 0; i < count; ++i) {
    workers->push_back(std::make_unique<ServerProcess>());
    if (!workers->back()->Start(ServerdArgv(w, options), options.run_dir,
                                error)) {
      return false;
    }
  }
  return true;
}

int ServerThreads(const Workload& w) {
  return w.fleet ? w.server_threads * (1 + w.fleet_workers)
                 : w.server_threads;
}

void PrintPreamble(const Workload& w, const Options& options) {
  std::printf("workload %s (seed %llu, %s, %.0f s): %s\n", w.name.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? "traced" : "end to end", options.seconds,
              w.why.c_str());
  std::printf("loop: %s, %zu connection(s)", w.open_loop ? "open" : "closed",
              w.connections.size());
  if (w.open_loop) {
    double rate = 0.0;
    for (const Connection& c : w.connections) rate += c.rate_rps;
    std::printf(", offered %.0f req/s", rate);
  }
  for (const Connection& c : w.connections) {
    std::printf(", %s", c.binary ? "gfb1" : "json");
  }
  std::printf("; server %s, %d pool thread(s) per process, cache %lld MB\n",
              w.fleet ? "groupform_brokerd --mode scatter, serverd workers"
                      : "groupform_serverd",
              w.server_threads, w.cache_mb);
  std::map<std::string, int> mix;
  for (const Connection& c : w.connections) {
    for (const Item& item : c.items) ++mix[item.kind];
  }
  std::printf("generated lines by kind:");
  for (const auto& [kind, count] : mix) {
    std::printf(" %s=%d", kind.c_str(), count);
  }
  std::printf("\n");
  const int connections = static_cast<int>(w.connections.size());
  const int threads = ServerThreads(w);
  const int cpus = NumCpus();
  std::printf(
      "load-guard: %d generator connection(s) + %d server pool thread(s) = "
      "%d, nproc %d: %s\n",
      connections, threads, connections + threads, cpus,
      connections + threads <= cpus ? "ok" : "OVER (figures are CPU-bound)");
}

int RunEndToEnd(const Workload& w, const Options& options) {
  PrintPreamble(w, options);

  // The reference answers every line before anything is timed.
  serve::SessionConfig unlimited;
  unlimited.cache_bytes = 0;
  serve::Session reference_session(unlimited);
  const Clock::time_point ref_start = Clock::now();
  Reference ref = BuildReference(w, reference_session, NumCpus());
  std::size_t lines = 0;
  for (const Connection& c : w.connections) lines += c.items.size();
  std::printf("reference: %zu line(s), %d partition(s) checked, %.2f s\n",
              lines, ref.partitions_checked,
              MsBetween(ref_start, Clock::now()) / 1000.0);
  if (options.corrupt_reference && !ref.expected[0][0].empty()) {
    std::string& doc = ref.expected[0][0];
    doc[doc.size() / 2] ^= 0x01;
    std::printf("reference: corrupted one byte of the first response\n");
  }

  std::vector<double> setups;
  ServerProcess server;
  for (int r = 0; r < kSetupRuns; ++r) {
    server.Stop();
    double seconds = 0.0;
    std::string error;
    if (!SetUp(w, options, &server, &seconds, &error)) {
      std::printf("error: set-up failed: %s\n", error.c_str());
      return 2;
    }
    setups.push_back(seconds);
  }

  if (!w.open_loop) {
    // Fill caches and finish lazy set-up before the window.
    const LoadResult warm =
        RunLoad(w, server.port(), std::min(1.0, options.seconds / 10.0));
    for (const std::string& e : warm.errors) {
      std::printf("error: warm-up: %s\n", e.c_str());
    }
  }

  const double cpu_before = server.CpuSeconds();
  LoadResult load = RunLoad(w, server.port(), options.seconds);
  const double cpu_s = server.CpuSeconds() - cpu_before;
  const double peak_rss_mb = server.PeakRssMb();
  server.Stop();

  // The gate, outside the window: every response byte for byte.
  long long failed = 0;
  long long completed = 0;
  std::vector<double> latencies;
  std::vector<double> lateness;
  std::map<std::string, std::vector<double>> by_kind;
  int reported = 0;
  for (const Sample& s : load.samples) {
    const Item& item = w.connections[s.conn].items[s.item];
    const bool ok =
        s.transport_ok && s.response == ref.expected[s.conn][s.item];
    if (!ok) {
      ++failed;
      if (reported++ < 3) {
        std::printf("mismatch: connection %d item %zu (%s): got %.200s\n",
                    s.conn, s.item, item.kind.c_str(), s.response.c_str());
      }
    } else {
      ++completed;
    }
    latencies.push_back(ok ? s.latency_ms
                           : std::numeric_limits<double>::infinity());
    by_kind[item.kind].push_back(latencies.back());
    if (w.open_loop) lateness.push_back(s.lateness_ms);
  }
  for (const std::string& e : load.errors) {
    std::printf("error: %s\n", e.c_str());
  }
  for (const std::string& p : ref.problems) {
    std::printf("reference check failed: %s\n", p.c_str());
  }
  failed += static_cast<long long>(ref.problems.size());
  if (!load.errors.empty()) failed = std::max(failed, 1LL);
  const long long attempted =
      std::max<long long>(1, static_cast<long long>(load.samples.size()));
  failed = std::min(failed, attempted);

  std::printf("sent by kind (count, p50 ms):");
  for (const auto& [kind, kind_latencies] : by_kind) {
    std::printf(" %s=%zu/%.3g", kind.c_str(), kind_latencies.size(),
                Median(kind_latencies));
  }
  std::printf("\n");

  bool invalid = false;
  if (w.open_loop) {
    std::sort(lateness.begin(), lateness.end());
    const double p99 =
        lateness.empty()
            ? 0.0
            : lateness[static_cast<std::size_t>(
                  0.99 * static_cast<double>(lateness.size() - 1))];
    Report::Print("generator.lateness_p50_ms", Median(lateness), "ms");
    char bound[64];
    std::snprintf(bound, sizeof(bound), "bound %.0f ms", kMaxLatenessP99Ms);
    Report::Print("generator.lateness_p99_ms", p99, "ms", bound);
    Report::Print("generator.lateness_max_ms",
                  lateness.empty() ? 0.0 : lateness.back(), "ms");
    invalid = p99 > kMaxLatenessP99Ms;
  }

  Report report;
  const Tail tail = TailOf(latencies);
  char note[160];
  std::snprintf(note, sizeof(note), "median of %d set-ups", kSetupRuns);
  report.Add("setup_s", Median(setups), "s", note);
  std::snprintf(note, sizeof(note), "%lld completed in %.2f s", completed,
                load.elapsed_s);
  const double throughput =
      load.elapsed_s > 0 ? static_cast<double>(completed) / load.elapsed_s
                         : 0.0;
  report.Add("throughput_rps", throughput, "1/s", note);
  std::snprintf(note, sizeof(note), "n=%zu", latencies.size());
  report.Add("latency_p50_ms", Median(latencies), "ms", note);
  std::snprintf(note, sizeof(note), "p%.2f, n=%zu, 10 samples beyond",
                tail.percentile, tail.n);
  report.Add("latency_tail_ms", tail.value, "ms", note);
  std::snprintf(note, sizeof(note), "%lld failed of %lld attempted", failed,
                attempted);
  Report::Print("error_rate",
                static_cast<double>(failed) / static_cast<double>(attempted),
                "ratio", note);
  report.Add("peak_rss_mb", peak_rss_mb, "MB",
             w.fleet ? "VmHWM, broker + workers" : "VmHWM");
  std::snprintf(note, sizeof(note), "%.3f s CPU over %lld requests", cpu_s,
                completed);
  report.Add("server_cpu_ms_per_req",
             completed > 0 ? cpu_s * 1000.0 / static_cast<double>(completed)
                           : 0.0,
             "ms", note);

  if (invalid) {
    std::printf(
        "INVALID: the generator ran more than %.0f ms late at p99; the run "
        "is not reported\n",
        kMaxLatenessP99Ms);
    return 3;
  }
  const bool correct = failed == 0 && load.errors.empty();
  std::printf("%s\n", report.Json(correct, attempted, failed).c_str());
  return correct ? 0 : 1;
}

}  // namespace perfbench
