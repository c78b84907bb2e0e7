#include "process.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

namespace perfbench {
namespace {

using namespace std::chrono_literals;

/// Fields of /proc/<pid>/stat after the parenthesised command name:
/// index 0 is field 3 (state), so field N sits at index N - 3.
std::vector<std::string> StatFields(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t close = text.rfind(')');
  std::vector<std::string> fields;
  if (close == std::string::npos) return fields;
  std::istringstream rest(text.substr(close + 1));
  for (std::string field; rest >> field;) fields.push_back(field);
  return fields;
}

bool Alive(pid_t pid) { return ::kill(pid, 0) == 0; }

/// Reaps `pid` if it is (or has become) our child; otherwise waits for it
/// to disappear. Gives up after `timeout`.
void WaitGone(pid_t pid, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) return;
    if (r < 0 && errno == ECHILD && !Alive(pid)) return;
    std::this_thread::sleep_for(2ms);
  }
}

}  // namespace

void BecomeSubreaper() { ::prctl(PR_SET_CHILD_SUBREAPER, 1); }

bool ServerProcess::Start(const std::vector<std::string>& argv,
                          const std::string& run_dir, std::string* error) {
  static std::atomic<int> counter{0};
  const std::string tag =
      std::to_string(::getpid()) + "-" + std::to_string(counter++);
  const std::string port_file = run_dir + "/port-" + tag;
  const std::string log_file = run_dir + "/server-" + tag + ".log";
  std::remove(port_file.c_str());

  std::vector<std::string> args = argv;
  for (const char* extra : {"--port", "0", "--port-file"}) {
    args.push_back(extra);
  }
  args.push_back(port_file);
  std::vector<char*> cargs;
  for (std::string& a : args) cargs.push_back(a.data());
  cargs.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int log = ::open(log_file.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                           0644);
    const int null = ::open("/dev/null", O_RDWR);
    if (null >= 0) {
      ::dup2(null, 0);
      ::dup2(null, 1);
    }
    if (log >= 0) ::dup2(log, 2);
    ::execv(cargs[0], cargs.data());
    std::fprintf(stderr, "execv(%s): %s\n", cargs[0], std::strerror(errno));
    ::_exit(127);
  }
  pid_ = pid;

  const auto deadline = std::chrono::steady_clock::now() + 60s;
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      *error = args[0] + " exited during start-up (see " + log_file + ")";
      return false;
    }
    std::ifstream in(port_file);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (!text.empty() && text.back() == '\n') {
      port_ = std::atoi(text.c_str());
      if (port_ > 0) {
        std::remove(port_file.c_str());
        return true;
      }
    }
    std::this_thread::sleep_for(1ms);
  }
  *error = args[0] + " wrote no port within 60 s";
  Stop();
  return false;
}

ServerProcess::~ServerProcess() { Stop(); }

std::vector<pid_t> ServerProcess::Tree() const {
  std::vector<pid_t> tree;
  if (pid_ <= 0) return tree;
  std::map<pid_t, pid_t> parent;
  if (DIR* dir = ::opendir("/proc")) {
    while (const dirent* entry = ::readdir(dir)) {
      const pid_t p = static_cast<pid_t>(std::atoi(entry->d_name));
      if (p <= 0) continue;
      const std::vector<std::string> fields = StatFields(p);
      if (fields.size() > 1) parent[p] = std::atoi(fields[1].c_str());
    }
    ::closedir(dir);
  }
  tree.push_back(pid_);
  for (std::size_t i = 0; i < tree.size(); ++i) {
    for (const auto& [child, ppid] : parent) {
      if (ppid == tree[i]) tree.push_back(child);
    }
  }
  return tree;
}

double ServerProcess::CpuSeconds() const {
  const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
  double total = 0.0;
  for (const pid_t p : Tree()) {
    const std::vector<std::string> fields = StatFields(p);
    if (fields.size() > 12) {
      total += (std::atof(fields[11].c_str()) + std::atof(fields[12].c_str())) /
               ticks;
    }
  }
  return total;
}

double ServerProcess::PeakRssMb() const {
  double kb = 0.0;
  for (const pid_t p : Tree()) {
    std::ifstream in("/proc/" + std::to_string(p) + "/status");
    for (std::string line; std::getline(in, line);) {
      if (line.rfind("VmHWM:", 0) == 0) kb += std::atof(line.c_str() + 6);
    }
  }
  return kb / 1024.0;
}

void ServerProcess::Stop() {
  if (pid_ <= 0) return;
  const std::vector<pid_t> tree = Tree();
  ::kill(pid_, SIGTERM);
  WaitGone(pid_, 5000ms);
  for (const pid_t p : tree) {
    if (p == pid_) continue;
    if (Alive(p)) {
      ::kill(p, SIGTERM);
      WaitGone(p, 2000ms);
    }
  }
  for (const pid_t p : tree) {
    if (Alive(p)) {
      ::kill(p, SIGKILL);
      WaitGone(p, 2000ms);
    }
  }
  pid_ = -1;
  port_ = 0;
}

}  // namespace perfbench
