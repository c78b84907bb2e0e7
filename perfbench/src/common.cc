#include "common.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return Sum(values) / static_cast<double>(values.size());
}

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.n = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  constexpr std::size_t kBeyond = 10;
  if (values.size() <= kBeyond) {
    tail.value = values.back();
    return tail;
  }
  const std::size_t rank = values.size() - kBeyond;  // 1-based
  tail.value = values[rank - 1];
  tail.percentile = 100.0 * static_cast<double>(rank) /
                    static_cast<double>(values.size());
  return tail;
}

int NumCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  metrics_.push_back({name, value, unit});
  Print(name, value, unit, note);
}

void Report::Print(const std::string& name, double value,
                   const std::string& unit, const std::string& note) {
  std::printf("metric %-32s = %.6g %s%s%s\n", name.c_str(), value,
              unit.c_str(), note.empty() ? "" : "  ", note.c_str());
}

std::string Report::Json(bool correct, long long attempted,
                         long long failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    const double v = std::isfinite(m.value) ? m.value : -1.0;
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
