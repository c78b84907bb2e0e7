#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared helpers of the benchmark runner: clocks, order statistics, and the
// metric report that prints one line per metric and the final JSON object.

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Median (mean of the middle pair for even sizes); 0 for an empty sample.
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
double Sum(const std::vector<double>& values);

/// The highest percentile a latency sample supports: the order statistic
/// with exactly ten samples beyond it. `percentile` is its rank as a
/// percentage of `n`. Failed requests enter as +infinity, so more than ten
/// failures make the tail infinite. With ten or fewer samples the tail is
/// the maximum (`percentile` = 100).
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t n = 0;
};
Tail TailOf(std::vector<double> values);

/// Logical CPUs this process may run on (sched_getaffinity), the `nproc`
/// figure the load-validity guard checks against.
int NumCpus();

/// Collects named metrics, prints each as a line as it is added, and
/// renders the final one-line JSON result.
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  /// Adds a metric to the JSON result and prints it like Print().
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = std::string());

  /// Prints `metric <name> = <value> <unit>  <note>` without adding it to
  /// the JSON result.
  static void Print(const std::string& name, double value,
                    const std::string& unit,
                    const std::string& note = std::string());

  /// `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. Infinite
  /// or NaN values (possible only in a failed run) render as -1.
  std::string Json(bool correct, long long attempted, long long failed) const;

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
