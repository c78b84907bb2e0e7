#include "loadgen.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <thread>

#include "common.h"
#include "conn.h"

namespace perfbench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void ClosedLoop(const Connection& spec, int index, int port,
                Clock::time_point start, Clock::time_point end,
                std::vector<Sample>* out, std::string* error) {
  Conn conn;
  if (!conn.Open(port, spec.binary, error)) return;
  for (std::size_t n = 0; Clock::now() < end; ++n) {
    Sample s;
    s.conn = index;
    s.item = n % spec.items.size();
    const Clock::time_point sent = Clock::now();
    s.transport_ok = conn.Send(spec.items[s.item], error) &&
                     conn.Receive(&s.response, error);
    const Clock::time_point done = Clock::now();
    s.latency_ms = s.transport_ok ? MsBetween(sent, done) : kInf;
    s.done_ms = MsBetween(start, done);
    out->push_back(std::move(s));
    if (!out->back().transport_ok) return;
  }
}

void OpenLoop(const Connection& spec, int index, int port,
              Clock::time_point start, double seconds,
              std::vector<Sample>* out, std::string* error) {
  Conn conn;
  if (!conn.Open(port, spec.binary, error)) return;
  const double period_ms = 1000.0 / spec.rate_rps;
  const std::size_t count = std::min(
      spec.items.size(),
      static_cast<std::size_t>(std::ceil(seconds * 1000.0 / period_ms)));
  out->resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    (*out)[i].conn = index;
    (*out)[i].item = i;
  }
  auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(
                           spec.phase_ms +
                           period_ms * static_cast<double>(i)));
  };
  std::string send_error;
  std::thread sender([&] {
    for (std::size_t i = 0; i < count; ++i) {
      std::this_thread::sleep_until(due(i));
      (*out)[i].lateness_ms = MsBetween(due(i), Clock::now());
      if (!conn.Send(spec.items[i], &send_error)) {
        conn.Close();
        return;
      }
    }
  });
  std::size_t received = 0;
  for (; received < count; ++received) {
    Sample& s = (*out)[received];
    if (!conn.Receive(&s.response, error)) break;
    const Clock::time_point done = Clock::now();
    s.latency_ms = MsBetween(due(received), done);
    s.done_ms = MsBetween(start, done);
  }
  conn.Close();
  sender.join();
  for (std::size_t i = received; i < count; ++i) {
    (*out)[i].transport_ok = false;
    (*out)[i].latency_ms = kInf;
  }
  if (error->empty()) *error = send_error;
}

}  // namespace

LoadResult RunLoad(const Workload& w, int port, double seconds) {
  const std::size_t n = w.connections.size();
  std::vector<std::vector<Sample>> per_conn(n);
  std::vector<std::string> errors(n);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      const int index = static_cast<int>(c);
      if (w.open_loop) {
        OpenLoop(w.connections[c], index, port, start, seconds, &per_conn[c],
                 &errors[c]);
      } else {
        ClosedLoop(w.connections[c], index, port, start, end, &per_conn[c],
                   &errors[c]);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  LoadResult result;
  result.elapsed_s = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    for (Sample& s : per_conn[c]) {
      if (s.transport_ok) {
        result.elapsed_s = std::max(result.elapsed_s, s.done_ms / 1000.0);
      }
      result.samples.push_back(std::move(s));
    }
    if (!errors[c].empty()) {
      result.errors.push_back("connection " + std::to_string(c) + ": " +
                              errors[c]);
    }
  }
  return result;
}

}  // namespace perfbench
