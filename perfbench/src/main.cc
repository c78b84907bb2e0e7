// perfbench_runner: runs one benchmark workload.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    --bin-dir DIR --run-dir DIR [--smoke]
//                    [--corrupt-reference]
//
// Prints one `metric ...` line per metric and, as the last line, the JSON
// result. Exit code 0 when every response was correct, 1 on a correctness
// failure, 2 on a set-up or usage error, 3 when an open-loop run is invalid
// because the generator fell behind its schedule.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "process.h"
#include "runs.h"
#include "solvers/builtin.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// `--key value` pairs; flags listed in `switches` take no value.
bool ParseFlags(int argc, char** argv,
                const std::vector<std::string>& switches,
                std::map<std::string, std::string>* flags) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument %s\n", key.c_str());
      return false;
    }
    key.erase(0, 2);
    bool is_switch = false;
    for (const std::string& s : switches) is_switch |= s == key;
    if (is_switch) {
      flags->insert_or_assign(key, std::string(1, '1'));
    } else if (i + 1 < argc) {
      flags->insert_or_assign(key, std::string(argv[++i]));
    } else {
      std::fprintf(stderr, "--%s needs a value\n", key.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  groupform::solvers::EnsureBuiltinSolversRegistered();
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::map<std::string, std::string> flags;
  if (!ParseFlags(argc, argv, {"smoke", "corrupt-reference"}, &flags)) {
    return 2;
  }
  Options options;
  options.workload = flags["workload"];
  options.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  options.seconds = flags.count("seconds") ? std::atof(flags["seconds"].c_str())
                                           : 10.0;
  options.trace = flags["trace"] == "1";
  options.bin_dir = flags["bin-dir"];
  options.run_dir = flags["run-dir"];
  options.smoke = flags.count("smoke") > 0;
  options.corrupt_reference = flags.count("corrupt-reference") > 0;
  if (options.bin_dir.empty() || options.run_dir.empty() ||
      options.seconds <= 0.0) {
    std::fprintf(stderr,
                 "--bin-dir, --run-dir and --seconds > 0 are required\n");
    return 2;
  }
  Workload w;
  if (!MakeWorkload(options.workload, options.seed, options.seconds,
                    options.smoke, &w)) {
    std::fprintf(stderr, "unknown --workload \"%s\"\n",
                 options.workload.c_str());
    return 2;
  }
  BecomeSubreaper();
  return options.trace ? RunTraced(w, options) : RunEndToEnd(w, options);
}
