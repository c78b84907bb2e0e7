// The traced run. It serves the workload's generated lines through an
// in-process serve::TcpServer whose handler is a timing wrapper around
// serve::Session (or fleet::BrokerSession over a timing fleet::Transport),
// then replays the pipeline through the library's public calls with one
// span per layer, and finishes with component probes. Spans stay in memory
// and are written to the run directory at the end.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "common.h"
#include "common/thread_pool.h"
#include "core/formation.h"
#include "core/solver_registry.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "eval/weighted_objective.h"
#include "exact/local_search.h"
#include "fleet/broker.h"
#include "fleet/transport.h"
#include "loadgen.h"
#include "process.h"
#include "recsys/preference_lists.h"
#include "reference.h"
#include "runs.h"
#include "serve/instance_cache.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"

namespace perfbench {
namespace {

namespace core = groupform::core;
namespace data = groupform::data;
namespace eval = groupform::eval;
namespace exact = groupform::exact;
namespace fleet = groupform::fleet;
namespace recsys = groupform::recsys;
namespace serve = groupform::serve;
using groupform::UserId;

// ---------------------------------------------------------------------------
// Spans

struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  /// Index of the enclosing span, -1 for a root.
  int parent = -1;
  std::string request;
  /// Base counts recorded where the work happens (meaning per span name).
  double a = 0.0;
  double b = 0.0;

  double ms() const { return MsBetween(start, end); }
};

class SpanLog {
 public:
  int Add(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size()) - 1;
  }
  void Finish(int index, Clock::time_point end) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(index)].end = end;
  }
  std::vector<Span> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times `fn` as a span named `name` under `parent`.
template <typename Fn>
auto Timed(SpanLog& log, const char* name, int parent,
           const std::string& request, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  auto result = fn();
  log.Add({name, start, Clock::now(), parent, request});
  return result;
}

std::string RequestId(const std::string& line) {
  const std::size_t at = line.find("\"id\":\"");
  if (at == std::string::npos || at > 256) return std::string();
  const std::size_t begin = at + 6;
  const std::size_t end = line.find('"', begin);
  return end == std::string::npos ? std::string()
                                  : line.substr(begin, end - begin);
}

/// serve::LineHandler that records one `serve.handle` span per request
/// (and the queue wait since the server stamped its arrival).
class TimingHandler : public serve::LineHandler {
 public:
  TimingHandler(serve::LineHandler& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  std::string HandleLine(const std::string& line,
                         Clock::time_point received_at) override {
    const Clock::time_point start = Clock::now();
    std::string out = inner_.HandleLine(line, received_at);
    const std::string id = RequestId(line);
    log_.Add({"serve.queue", received_at, start, -1, id});
    log_.Add({"serve.handle", start, Clock::now(), -1, id});
    return out;
  }

 private:
  serve::LineHandler& inner_;
  SpanLog& log_;
};

/// fleet::Transport that records one `fleet.worker_call` span per call
/// and counts connection resets.
class TimingTransport : public fleet::Transport {
 public:
  TimingTransport(fleet::Transport& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  groupform::common::StatusOr<std::string> Call(
      int worker, const std::string& line) override {
    const Clock::time_point start = Clock::now();
    auto out = inner_.Call(worker, line);
    log_.Add({"fleet.worker_call", start, Clock::now(), -1, RequestId(line),
              static_cast<double>(worker)});
    return out;
  }
  void Reset(int worker) override {
    ++resets_;
    inner_.Reset(worker);
  }
  int num_workers() const override { return inner_.num_workers(); }
  int resets() const { return resets_.load(); }

 private:
  fleet::Transport& inner_;
  SpanLog& log_;
  std::atomic<int> resets_{0};
};

std::vector<double> Durations(const std::vector<Span>& spans,
                              const std::string& name, double scale = 1.0) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(s.ms() * scale);
  }
  return out;
}

/// Milliseconds of [start, end) covered by the union of `inner` intervals.
double Coverage(Clock::time_point start, Clock::time_point end,
                std::vector<std::pair<Clock::time_point, Clock::time_point>>
                    inner) {
  std::sort(inner.begin(), inner.end());
  double covered = 0.0;
  Clock::time_point cursor = start;
  for (auto [s, e] : inner) {
    s = std::max(s, cursor);
    e = std::min(e, end);
    if (e > s) {
      covered += MsBetween(s, e);
      cursor = e;
    }
  }
  return covered;
}

// ---------------------------------------------------------------------------
// The fleet under trace: workers as real serverd processes, the broker
// in-process over a timing transport.

struct Fleet {
  std::vector<std::unique_ptr<ServerProcess>> workers;
  std::unique_ptr<fleet::TcpTransport> tcp;
  std::unique_ptr<TimingTransport> timing;
  std::unique_ptr<fleet::BrokerSession> broker;
};

bool StartFleet(const Workload& w, const Options& options, SpanLog& log,
                Fleet* f, std::string* error) {
  // Workloads served without a fleet probe it with two workers.
  const int workers = w.fleet ? w.fleet_workers : 2;
  if (!StartWorkers(w, workers, options, &f->workers, error)) return false;
  std::vector<fleet::Endpoint> endpoints;
  for (const auto& worker : f->workers) {
    endpoints.push_back({"127.0.0.1", worker->port()});
  }
  f->tcp = std::make_unique<fleet::TcpTransport>(
      endpoints, serve::WireClient::Wire::kBinary);
  f->timing = std::make_unique<TimingTransport>(*f->tcp, log);
  fleet::BrokerConfig config;
  config.mode = fleet::BrokerConfig::Mode::kScatter;
  f->broker = std::make_unique<fleet::BrokerSession>(config, *f->timing);
  return true;
}

// ---------------------------------------------------------------------------
// In-process serving phases

struct Served {
  std::vector<double> round_trips;
  long long mismatches = 0;
  long long unavailable = 0;
  long long attempted = 0;
  std::vector<std::string> errors;

  void Append(const Served& other) {
    round_trips.insert(round_trips.end(), other.round_trips.begin(),
                       other.round_trips.end());
    mismatches += other.mismatches;
    unavailable += other.unavailable;
    attempted += other.attempted;
    errors.insert(errors.end(), other.errors.begin(), other.errors.end());
  }
};

Served Serve(const Workload& w, serve::LineHandler& handler, double seconds,
             const Reference& ref) {
  serve::ServerConfig config;
  config.port = 0;
  config.max_inflight = w.max_inflight;
  config.credit_window = w.max_inflight;
  serve::TcpServer server(handler, config);
  Served out;
  if (const auto status = server.Start(); !status.ok()) {
    out.errors.push_back("in-process server: " + status.ToString());
    return out;
  }
  std::thread serving([&] { (void)server.Serve(); });
  const LoadResult load = RunLoad(w, server.port(), seconds);
  server.Shutdown();
  serving.join();
  out.errors = load.errors;
  for (const Sample& s : load.samples) {
    ++out.attempted;
    if (!s.transport_ok || s.response != ref.expected[s.conn][s.item]) {
      ++out.mismatches;
    }
    if (s.response.find("\"UNAVAILABLE\"") != std::string::npos) {
      ++out.unavailable;
    }
    out.round_trips.push_back(s.latency_ms);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Replay: the pipeline of one request through public calls

bool IsExactFamily(const std::string& solver) {
  return solver == "localsearch" || solver == "sa";
}

/// What the replay of one element leaves behind for the probes.
struct Replayed {
  serve::Request request;
  serve::LoadedInstance instance;
  core::FormationResult result;
  /// Wall time of this replay's Create + Solve.
  double solve_ms = 0.0;
};

class Replayer {
 public:
  Replayer(SpanLog& log, long long cache_mb)
      : log_(log), session_(Config(cache_mb)) {}

  serve::Session& session() { return session_; }

  /// Replays one generated line; returns false (with `error`) when the
  /// replayed bytes differ from `expected`.
  bool Replay(const Item& item, const std::string& expected,
              std::vector<Replayed>* done, std::string* error) {
    const std::string id = RequestId(item.line);
    const int root =
        log_.Add({"replay", Clock::now(), Clock::now(), -1, id});
    const auto any = Timed(log_, "serve.parse", root, id, [&] {
      return serve::ParseAnyRequestLine(item.line);
    });
    if (!any.ok()) {
      *error = "parse: " + any.status().ToString();
      return false;
    }
    std::vector<serve::Request> requests =
        any->is_batch ? any->batch.requests
                      : std::vector<serve::Request>{any->request};
    std::vector<serve::Response> responses;
    for (const serve::Request& request : requests) {
      responses.push_back(Execute(request, root, done));
    }
    const std::string rendered = Timed(log_, "serve.render", root, id, [&] {
      if (!any->is_batch) return serve::RenderResponse(responses[0]);
      serve::BatchResponse batch;
      batch.id = any->batch.id;
      batch.responses = std::move(responses);
      return serve::RenderBatchResponse(batch);
    });
    log_.Finish(root, Clock::now());
    // The wire codec on the same payloads, outside the replay root.
    Timed(log_, "serve.frame", -1, id, [&] {
      std::size_t bytes = 0;
      for (const std::string* payload : {&item.line, &expected}) {
        const std::string frame =
            serve::EncodeFrame(serve::FrameType::kRequest, 0, *payload);
        serve::Frame decoded;
        std::size_t consumed = 0;
        std::string codec_error;
        serve::DecodeFrame(frame, serve::kMaxRequestLineBytes, &decoded,
                           &consumed, &codec_error);
        bytes += decoded.payload.size();
      }
      return bytes;
    });
    if (rendered != expected) {
      *error = "replayed RenderResponse differs from the served bytes";
      return false;
    }
    return true;
  }

 private:
  static serve::SessionConfig Config(long long cache_mb) {
    serve::SessionConfig config;
    config.cache_bytes = cache_mb * 1024 * 1024;
    return config;
  }

  /// Session::ExecuteLoaded's path for a request with no deadline or cap:
  /// resolve, solve, metrics, and the OK packaging.
  serve::Response Execute(const serve::Request& request, int root,
                          std::vector<Replayed>* done) {
    if (request.is_delta) {
      return Timed(log_, "serve.execute_delta", root, request.id, [&] {
        return session_.ExecuteDelta(request, Clock::now());
      });
    }
    serve::Response response;
    response.id = request.id;
    const long long misses_before = session_.cache().stats().misses;
    const Clock::time_point resolve_start = Clock::now();
    auto loaded = session_.cache().Get(request.instance);
    const bool miss = session_.cache().stats().misses > misses_before;
    log_.Add({miss ? "serve.resolve_miss" : "serve.resolve_hit",
              resolve_start, Clock::now(), root, request.id});
    if (!loaded.ok()) return Fail(response, loaded.status());
    auto problem = BuildProblem(request.problem, *loaded);
    if (!problem.ok()) return Fail(response, problem.status());

    const char* span = IsExactFamily(request.solver) ? "exact.solve"
                                                     : "core.solve";
    const Clock::time_point solve_start = Clock::now();
    auto solver = core::SolverRegistry::Global().Create(
        request.solver, *problem, request.options);
    if (!solver.ok()) return Fail(response, solver.status());
    auto result = (*solver)->Solve(request.seed);
    if (!result.ok()) return Fail(response, result.status());
    const double passes = static_cast<double>(std::min<long long>(
        request.options.GetInt("max_passes", 200), result->refine_passes + 1));
    const Clock::time_point solve_end = Clock::now();
    log_.Add({span, solve_start, solve_end, root, request.id,
              static_cast<double>(result->refine_passes),
              request.solver == "localsearch" ? passes : 0.0});
    const double solve_ms = MsBetween(solve_start, solve_end);

    Timed(log_, "eval.metrics", root, request.id, [&] {
      response.metrics.avg_group_satisfaction =
          eval::AvgGroupSatisfaction(*problem, *result);
      response.metrics.mean_user_rating =
          eval::MeanPerUserSatisfaction(*problem, *result);
      response.metrics.mean_user_ndcg = eval::MeanUserNdcg(*problem, *result);
      response.metrics.fully_satisfied =
          eval::FullySatisfiedFraction(*problem, *result);
      return 0;
    });
    response.solver = request.solver;
    response.objective = result->objective;
    response.num_groups = result->num_groups();
    if (request.include_groups) {
      response.has_groups = true;
      for (const core::FormedGroup& group : result->groups) {
        response.groups.push_back(group.members);
      }
    }
    response.partial = result->partial;
    response.floor_violations = result->floor_violations;
    done->push_back({request, *loaded, *std::move(result), solve_ms});
    return response;
  }

  static serve::Response Fail(serve::Response response,
                              groupform::common::Status status) {
    response.state = eval::SweepCellState::kErr;
    response.status = std::move(status);
    return response;
  }

  SpanLog& log_;
  serve::Session session_;
};

// ---------------------------------------------------------------------------
// Component probes

double RatedCells(const data::RatingStore& store,
                  const std::vector<UserId>& members) {
  double cells = 0.0;
  for (const UserId u : members) cells += store.NumRatingsOf(u);
  return cells;
}

/// ComputeGroupList once per formed group of a replayed solve; returns
/// the milliseconds those calls took together.
double ProbeGroupLists(SpanLog& log, const Replayed& r,
                       const core::FormationProblem& problem) {
  const auto scorer = problem.MakeScorer();
  const data::RatingStore store = problem.Store();
  double total_ms = 0.0;
  for (const core::FormedGroup& group : r.result.groups) {
    const Clock::time_point start = Clock::now();
    const auto list = core::ComputeGroupList(problem, scorer, group.members);
    const Clock::time_point end = Clock::now();
    log.Add({"grouprec.topk", start, end, -1, r.request.id,
             static_cast<double>(store.num_items()),
             RatedCells(store, group.members)});
    total_ms += MsBetween(start, end);
    (void)list;
  }
  return total_ms;
}

void ProbeScoreGroups(SpanLog& log, const Replayed& r,
                      const core::FormationProblem& problem) {
  std::vector<std::vector<UserId>> groups;
  double largest = 0.0;
  for (const core::FormedGroup& g : r.result.groups) {
    groups.push_back(g.members);
    largest = std::max(largest, static_cast<double>(g.members.size()));
  }
  const auto scorer = problem.MakeScorer();
  const Clock::time_point start = Clock::now();
  const auto scores = core::ScoreGroups(problem, scorer, groups);
  log.Add({"core.score_groups", start, Clock::now(), -1, r.request.id,
           static_cast<double>(scores.size()), largest});
}

void ProbePreferenceLists(SpanLog& log, const Replayed& r,
                          const core::FormationProblem& problem) {
  const data::RatingStore store = problem.Store();
  const Clock::time_point start = Clock::now();
  std::size_t entries = 0;
  for (UserId u = 0; u < store.num_users(); ++u) {
    entries += recsys::TopKList(store, u, problem.k).size();
  }
  log.Add({"recsys.pref_lists", start, Clock::now(), -1, r.request.id,
           static_cast<double>(store.num_users()),
           static_cast<double>(entries)});
}

/// One PlanPassMoves over the greedy seed partition (all users on small
/// instances, the first 16 otherwise), plus a one-pass localsearch solve
/// when the workload replayed no exact-family request.
void ProbeExact(SpanLog& log, const serve::Request& request,
                const core::FormationProblem& problem, bool solve_too) {
  const Clock::time_point greedy_start = Clock::now();
  auto greedy = core::SolverRegistry::Global().Create("greedy", problem);
  if (!greedy.ok()) return;
  auto seed = (*greedy)->Solve(request.seed);
  if (!seed.ok()) return;
  log.Add({"core.solve", greedy_start, Clock::now(), -1, "exact-probe"});

  const std::int32_t n = problem.Store().num_users();
  std::vector<std::vector<UserId>> groups;
  std::vector<double> satisfaction;
  std::vector<int> group_of(static_cast<std::size_t>(n), -1);
  for (const core::FormedGroup& g : seed->groups) {
    for (const UserId u : g.members) {
      group_of[static_cast<std::size_t>(u)] =
          static_cast<int>(groups.size());
    }
    groups.push_back(g.members);
    satisfaction.push_back(g.satisfaction);
  }
  std::vector<UserId> visit;
  for (UserId u = 0; u < n && (n <= 400 || u < 16); ++u) visit.push_back(u);
  const exact::LocalSearchSolver::Options options;
  const double others = static_cast<double>(groups.size()) - 1.0;
  const double candidates =
      static_cast<double>(visit.size()) * others *
      (1.0 + (options.use_swaps ? options.swap_samples : 0));
  const auto scorer = problem.MakeScorer();
  const Clock::time_point plan_start = Clock::now();
  const auto plan = exact::PlanPassMoves(problem, scorer, groups, satisfaction,
                                         group_of, visit, request.seed,
                                         options);
  log.Add({"exact.plan_pass", plan_start, Clock::now(), -1, "exact-probe",
           candidates, static_cast<double>(plan.size())});

  if (!solve_too) return;
  groupform::core::SolverOptions one_pass;
  one_pass.Set("max_passes", "1");
  const Clock::time_point solve_start = Clock::now();
  auto ls = core::SolverRegistry::Global().Create("localsearch", problem,
                                                  one_pass);
  if (!ls.ok()) return;
  auto result = (*ls)->Solve(request.seed);
  if (!result.ok()) return;
  log.Add({"exact.solve", solve_start, Clock::now(), -1, "exact-probe",
           static_cast<double>(result->refine_passes), 1.0});
}

/// ComputeGroupList for one fixed 8-member group on a sparse catalogue.
struct TopKProbe {
  const char* label;
  std::int32_t items;
  double us = 0.0;  // median per call
  double cells = 0.0;  // the group's rated cells
};

void ProbeTopK(std::uint64_t seed, TopKProbe* probe) {
  data::ScaleConfig config;
  config.num_users = 64;
  config.num_items = probe->items;
  config.min_ratings_per_user = 12;
  config.max_ratings_per_user = 24;
  config.seed = seed;
  const data::RatingMatrix matrix = data::GenerateScaleSparse(config);
  core::FormationProblem problem;
  problem.matrix = &matrix;
  problem.k = 10;
  problem.max_groups = 8;
  const auto scorer = problem.MakeScorer();
  std::vector<UserId> members;
  for (UserId u = 0; u < 64; u += 8) members.push_back(u);
  std::vector<double> us;
  const Clock::time_point until = Clock::now() + std::chrono::milliseconds(60);
  while (us.size() < 5 || (Clock::now() < until && us.size() < 200)) {
    const Clock::time_point start = Clock::now();
    const auto list = core::ComputeGroupList(problem, scorer, members);
    us.push_back(MsBetween(start, Clock::now()) * 1000.0);
    (void)list;
  }
  probe->us = Median(us);
  probe->cells = RatedCells(problem.Store(), members);
}

void WriteSpans(const std::vector<Span>& spans, Clock::time_point origin,
                const std::string& path) {
  std::ofstream out(path);
  out << std::fixed << std::setprecision(3);
  for (const Span& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"start_us\":"
        << MsBetween(origin, s.start) * 1000.0
        << ",\"end_us\":" << MsBetween(origin, s.end) * 1000.0
        << ",\"parent\":" << s.parent << ",\"request\":\"" << s.request
        << "\",\"a\":" << s.a << ",\"b\":" << s.b << "}\n";
  }
}

// ---------------------------------------------------------------------------
// The run: collection, then the per-layer report

/// Everything the traced run collected for the per-layer report.
struct Collected {
  /// Serving, replay, and probe spans.
  std::vector<Span> spans;
  /// Broker handle and worker-call spans (the served fleet's, or the
  /// fleet probe's).
  std::vector<Span> fleet_spans;
  bool fleet_probe = false;
  int fleet_resets = 0;
  long long fleet_unavailable = 0;
  Served plain;
  Served traced;
  serve::InstanceCache::Stats cache;
  std::vector<double> build_ms, rated_cells, instance_bytes;
  bool exact_replayed = false;
  /// Over the replayed greedy-family solves: each solve's group top-k
  /// time, bounded by the solve itself.
  double grouprec_in_solves_ms = 0.0;
  TopKProbe topk[3] = {{"2k", 2'000}, {"20k", 20'000}, {"200k", 200'000}};
  long long attempted = 0;
  long long failed = 0;
};

constexpr std::size_t kMaxReplayedElements = 4000;

/// Replays the lines in served order (connections interleaved) within a
/// budget, then probes the replayed problems.
void ReplayAndProbe(const Workload& w, const Reference& ref, double budget_s,
                    SpanLog& log, Collected* c) {
  Replayer replayer(log, w.cache_mb);
  std::vector<Replayed> replayed;
  const Clock::time_point until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(budget_s));
  std::string error;
  std::size_t replays = 0;
  for (std::size_t i = 0;; ++i) {
    bool any = false;
    for (std::size_t k = 0; k < w.connections.size(); ++k) {
      if (i >= w.connections[k].items.size()) continue;
      any = true;
      if (!replayer.Replay(w.connections[k].items[i], ref.expected[k][i],
                           &replayed, &error)) {
        std::printf("replay mismatch: %s\n", error.c_str());
        ++c->failed;
      }
      ++replays;
      ++c->attempted;
    }
    // Stop at the budget, or once enough elements were replayed that the
    // per-layer medians are settled and the span log stays small.
    if (!any || (replays >= 4 && (Clock::now() >= until ||
                                  replayed.size() >= kMaxReplayedElements))) {
      break;
    }
  }
  // The fleet's broker keeps its session private: report the replay
  // session's cache, which saw the same lines with the same budget.
  if (w.fleet) c->cache = replayer.session().cache().stats();

  std::set<std::string> instances;
  for (std::size_t i = 0; i < replayed.size(); ++i) {
    const Replayed& r = replayed[i];
    c->exact_replayed |= IsExactFamily(r.request.solver);
    const auto problem = BuildProblem(r.request.problem, r.instance);
    if (!problem.ok()) continue;
    const double topk_ms = ProbeGroupLists(log, r, *problem);
    if (!IsExactFamily(r.request.solver)) {
      c->grouprec_in_solves_ms += std::min(r.solve_ms, topk_ms);
    }
    if (i < 6) ProbeScoreGroups(log, r, *problem);
    if (!instances.insert(r.request.instance.CanonicalKey()).second ||
        instances.size() > 8) {
      continue;
    }
    if (instances.size() <= 4) ProbePreferenceLists(log, r, *problem);
    const Clock::time_point start = Clock::now();
    const auto loaded = serve::LoadInstance(r.request.instance);
    if (loaded.ok()) {
      c->build_ms.push_back(MsBetween(start, Clock::now()));
      c->rated_cells.push_back(
          static_cast<double>(loaded->Store().num_ratings()));
      c->instance_bytes.push_back(static_cast<double>(loaded->ChargedBytes()));
    }
  }

  // Exact probe: the first exact-family problem, else the first problem
  // cut to at most 200 users x 1000 items of the same generator.
  serve::Request request;
  serve::LoadedInstance instance;
  const auto pick = std::find_if(replayed.begin(), replayed.end(),
                                 [](const Replayed& r) {
                                   return IsExactFamily(r.request.solver);
                                 });
  if (pick != replayed.end()) {
    request = pick->request;
    instance = pick->instance;
  } else if (!replayed.empty()) {
    request = replayed.front().request;
    request.instance.users = std::min(request.instance.users, 200);
    request.instance.items = std::min(request.instance.items, 1000);
    if (auto loaded = serve::LoadInstance(request.instance); loaded.ok()) {
      instance = *loaded;
    }
  }
  if (instance.dense != nullptr || instance.compact != nullptr) {
    const auto problem = BuildProblem(request.problem, instance);
    if (problem.ok()) ProbeExact(log, request, *problem, !c->exact_replayed);
  }
}

/// The fleet layer on a workload that does not serve through it: the
/// first distinct single lines through an in-process broker, each sent
/// twice (the second, warm, call is the one measured).
void ProbeFleet(const Workload& w, const Options& options,
                const Reference& ref, Collected* c) {
  SpanLog log;
  Fleet probe;
  std::string error;
  if (!StartFleet(w, options, log, &probe, &error)) {
    std::printf("error: fleet probe: %s\n", error.c_str());
    ++c->failed;
    return;
  }
  TimingHandler timing(*probe.broker, log);
  std::set<std::string> sent;
  const std::vector<Item>& items = w.connections[0].items;
  for (std::size_t i = 0; i < items.size() && sent.size() < 4; ++i) {
    if (items[i].batch || !sent.insert(items[i].line).second) continue;
    probe.broker->HandleLine(items[i].line, Clock::now());
    const std::string out = timing.HandleLine(items[i].line, Clock::now());
    ++c->attempted;
    if (out != ref.expected[0][i]) {
      std::printf("fleet probe mismatch on %s\n", items[i].kind.c_str());
      ++c->failed;
    }
    if (out.find("\"UNAVAILABLE\"") != std::string::npos) {
      ++c->fleet_unavailable;
    }
  }
  c->fleet_resets = probe.timing->resets();
  c->fleet_spans = log.Snapshot();
}

void ReportServeAndData(const Collected& c, Report& report) {
  char note[200];
  const std::vector<double> handle = Durations(c.spans, "serve.handle");
  std::snprintf(note, sizeof(note), "n=%zu wrapped HandleLine calls",
                handle.size());
  report.Add("serve.handle_ms", Median(handle), "ms", note);
  report.Add("serve.wait_ms", Mean(c.traced.round_trips) - Mean(handle), "ms",
             "mean round trip minus mean handle: queue plus wire");
  report.Add("serve.queue_ms", Median(Durations(c.spans, "serve.queue")),
             "ms", "arrival stamp to handler start");
  report.Add("serve.parse_us", Median(Durations(c.spans, "serve.parse", 1e3)),
             "us");
  report.Add("serve.frame_us", Median(Durations(c.spans, "serve.frame", 1e3)),
             "us", "EncodeFrame+DecodeFrame of request and response");
  report.Add("serve.render_us",
             Median(Durations(c.spans, "serve.render", 1e3)), "us");
  const auto hits = Durations(c.spans, "serve.resolve_hit", 1e3);
  const auto misses = Durations(c.spans, "serve.resolve_miss");
  std::snprintf(note, sizeof(note), "n=%zu", hits.size());
  report.Add("serve.resolve_hit_us", Median(hits), "us", note);
  std::snprintf(note, sizeof(note), "n=%zu", misses.size());
  report.Add("serve.resolve_miss_ms", Median(misses), "ms", note);
  const double gets = static_cast<double>(c.cache.hits + c.cache.misses);
  std::snprintf(note, sizeof(note), "%lld hits of %.0f gets", c.cache.hits,
                gets);
  report.Add("serve.cache_hit_ratio",
             gets > 0 ? static_cast<double>(c.cache.hits) / gets : 0.0,
             "ratio", note);
  report.Add("serve.cache_hits", static_cast<double>(c.cache.hits), "count");
  report.Add("serve.cache_gets", gets, "count");
  report.Add("serve.cache_evictions", static_cast<double>(c.cache.evictions),
             "count");
  report.Add("serve.cache_bytes", static_cast<double>(c.cache.bytes), "bytes");

  std::snprintf(note, sizeof(note),
                "LoadInstance, mean over %zu distinct specs",
                c.build_ms.size());
  report.Add("data.build_ms", Mean(c.build_ms), "ms", note);
  report.Add("data.rated_cells", Mean(c.rated_cells), "count");
  report.Add("data.instance_bytes", Mean(c.instance_bytes), "bytes");
}

void ReportSolverLayers(const Collected& c, Report& report) {
  char note[200];
  std::vector<double> pref_users, groups, largest, exact_passes, ms_per_pass;
  std::vector<double> topk_us;
  double topk_ms = 0.0, topk_items = 0.0, topk_cells = 0.0;
  double plan_ms = 0.0, candidates = 0.0;
  for (const Span& s : c.spans) {
    if (s.name == "recsys.pref_lists") {
      pref_users.push_back(s.a);
    } else if (s.name == "core.score_groups") {
      groups.push_back(s.a);
      largest.push_back(s.b);
    } else if (s.name == "grouprec.topk") {
      topk_us.push_back(s.ms() * 1e3);
      topk_ms += s.ms();
      topk_items += s.a;
      topk_cells += s.b;
    } else if (s.name == "exact.solve") {
      exact_passes.push_back(s.a);
      if (s.b > 0) ms_per_pass.push_back(s.ms() / s.b);
    } else if (s.name == "exact.plan_pass") {
      plan_ms = s.ms();
      candidates = s.a;
    }
  }
  std::snprintf(note, sizeof(note), "TopKList over every user, %.0f users",
                Median(pref_users));
  report.Add("recsys.pref_lists_ms",
             Median(Durations(c.spans, "recsys.pref_lists")), "ms", note);

  report.Add("core.solve_ms", Median(Durations(c.spans, "core.solve")), "ms",
             "greedy-family Solve");
  report.Add("core.score_groups_ms",
             Median(Durations(c.spans, "core.score_groups")), "ms");
  report.Add("core.groups", Median(groups), "count");
  report.Add("core.max_group_size", Median(largest), "count");

  const double calls =
      std::max<double>(1.0, static_cast<double>(topk_us.size()));
  std::snprintf(note, sizeof(note),
                "ComputeGroupList per formed group, n=%zu", topk_us.size());
  report.Add("grouprec.topk_us", Median(topk_us), "us", note);
  report.Add("grouprec.items", topk_items / calls, "count", "per call");
  report.Add("grouprec.cells", topk_cells / calls, "count",
             "members' rated cells per call");
  report.Add("grouprec.ns_per_item",
             topk_items > 0 ? topk_ms * 1e6 / topk_items : 0.0, "ns");
  report.Add("grouprec.ns_per_cell",
             topk_cells > 0 ? topk_ms * 1e6 / topk_cells : 0.0, "ns");
  report.Add("grouprec.cells_per_item",
             topk_items > 0 ? topk_cells / topk_items : 0.0, "ratio",
             "useful work per catalogue item scanned");
  for (const TopKProbe& probe : c.topk) {
    const std::string base = std::string("grouprec.probe_") + probe.label;
    std::snprintf(note, sizeof(note), "fixed 8-member group, %.0f cells",
                  probe.cells);
    report.Add(base + "_topk_us", probe.us, "us", note);
    report.Add(base + "_ns_per_item", probe.us * 1e3 / probe.items, "ns");
    report.Add(base + "_ns_per_cell", probe.us * 1e3 / probe.cells, "ns");
  }

  const std::vector<double> exact_ms = Durations(c.spans, "exact.solve");
  std::snprintf(note, sizeof(note), "localsearch/sa Solve, n=%zu%s",
                exact_ms.size(), c.exact_replayed ? "" : " (probe)");
  report.Add("exact.solve_ms", Median(exact_ms), "ms", note);
  report.Add("exact.refine_passes", Mean(exact_passes), "count");
  report.Add("exact.ms_per_pass", Median(ms_per_pass), "ms");
  report.Add("exact.plan_pass_ms", plan_ms, "ms",
             "PlanPassMoves over the greedy seed partition");
  report.Add("exact.candidate_moves", candidates, "count",
             "relocations + sampled swaps, from the inputs");
  report.Add("exact.us_per_move",
             candidates > 0 ? plan_ms * 1e3 / candidates : 0.0, "us");

  const double metrics_sum = Sum(Durations(c.spans, "eval.metrics"));
  const double replay_sum = Sum(Durations(c.spans, "replay"));
  report.Add("eval.metrics_ms", Median(Durations(c.spans, "eval.metrics")),
             "ms", "the four eval metric calls");
  report.Add("eval.metrics_share",
             replay_sum > 0 ? metrics_sum / replay_sum : 0.0, "ratio",
             "of replayed handle time");
}

void ReportFleet(const Collected& c, Report& report) {
  std::vector<double> handle, self, calls, call_ms;
  for (const Span& h : c.fleet_spans) {
    if (h.name != "serve.handle") continue;
    std::vector<std::pair<Clock::time_point, Clock::time_point>> inside;
    for (const Span& call : c.fleet_spans) {
      if (call.name == "fleet.worker_call" && call.start >= h.start &&
          call.start < h.end) {
        inside.push_back({call.start, call.end});
        call_ms.push_back(call.ms());
      }
    }
    handle.push_back(h.ms());
    calls.push_back(static_cast<double>(inside.size()));
    self.push_back(h.ms() - Coverage(h.start, h.end, inside));
  }
  char note[200];
  std::snprintf(note, sizeof(note), "n=%zu broker HandleLine calls%s",
                handle.size(), c.fleet_probe ? " (probe)" : "");
  report.Add("fleet.handle_ms", Median(handle), "ms", note);
  report.Add("fleet.worker_calls", Mean(calls), "calls/req");
  report.Add("fleet.worker_call_ms", Median(call_ms), "ms");
  report.Add("fleet.broker_self_ms", Median(self), "ms",
             "handle minus worker-call coverage");
  report.Add("fleet.resets", c.fleet_resets, "count");
  report.Add("fleet.unavailable", static_cast<double>(c.fleet_unavailable),
             "count");
}

/// Tracing overhead, and the separation shares each workload was chosen
/// for, over the replayed requests.
void ReportOverheadAndShares(const Collected& c, Report& report) {
  const double rt_traced = Median(c.traced.round_trips);
  const double rt_plain = Median(c.plain.round_trips);
  report.Add("trace.round_trip_ms", rt_traced, "ms", "traced phase p50");
  report.Add("trace.untraced_round_trip_ms", rt_plain, "ms",
             "untraced phase p50");
  report.Add("trace.overhead_ratio",
             rt_plain > 0 ? rt_traced / rt_plain - 1.0 : 0.0, "ratio");

  double exact_sum = 0.0, metrics_sum = 0.0;
  double work_sum = 0.0;  // solves, delta executions and metrics
  for (const Span& s : c.spans) {
    if (s.parent < 0) continue;
    if (s.name == "core.solve") {
      work_sum += s.ms();
    } else if (s.name == "exact.solve") {
      exact_sum += s.ms();
      work_sum += s.ms();
    } else if (s.name == "serve.execute_delta") {
      work_sum += s.ms();
    } else if (s.name == "eval.metrics") {
      metrics_sum += s.ms();
      work_sum += s.ms();
    }
  }
  const std::vector<double> replay = Durations(c.spans, "replay");
  const double replay_sum = Sum(replay);
  const double wait_sum =
      (Mean(c.traced.round_trips) -
       Mean(Durations(c.spans, "serve.handle"))) *
      static_cast<double>(replay.size());
  const auto share = [](double part, double whole) {
    return whole > 0 ? part / whole : 0.0;
  };
  report.Add("share.grouprec_eval_of_handle",
             share(c.grouprec_in_solves_ms + metrics_sum, replay_sum), "ratio",
             "grouprec part of greedy solves plus eval metrics");
  report.Add("share.exact_of_handle", share(exact_sum, replay_sum), "ratio");
  report.Add("share.serve_data_of_round_trip",
             share(replay_sum - work_sum + wait_sum, replay_sum + wait_sum),
             "ratio", "everything but solve and metrics, plus queue and wire");
}

}  // namespace

int RunTraced(const Workload& w, const Options& options) {
  PrintPreamble(w, options);
  const Clock::time_point origin = Clock::now();
  serve::SessionConfig unlimited;
  unlimited.cache_bytes = 0;
  serve::Session reference_session(unlimited);
  const Reference ref = BuildReference(w, reference_session, NumCpus());
  Collected c;
  c.failed = static_cast<long long>(ref.problems.size());
  for (const std::string& p : ref.problems) {
    std::printf("reference check failed: %s\n", p.c_str());
  }

  // The in-process server runs with the workload's pool size.
  groupform::common::ThreadPool::SetDefaultThreadCount(w.server_threads);
  SpanLog log;
  serve::SessionConfig config;
  config.cache_bytes = w.cache_mb * 1024 * 1024;
  serve::Session session(config);
  Fleet fleet;
  std::string error;
  if (w.fleet && !StartFleet(w, options, log, &fleet, &error)) {
    std::printf("error: %s\n", error.c_str());
    return 2;
  }
  serve::LineHandler& inner =
      w.fleet ? static_cast<serve::LineHandler&>(*fleet.broker)
              : static_cast<serve::LineHandler&>(session);
  for (const std::string& line : w.setup_lines) {
    inner.HandleLine(line, Clock::now());
  }

  // Untraced and traced slices alternate on the same warm server state,
  // so drift in either direction lands on both sides.
  constexpr int kSlices = 3;
  const double slice_s = std::max(0.2, 0.1 * options.seconds);
  TimingHandler timing(inner, log);
  for (int i = 0; i < kSlices; ++i) {
    c.plain.Append(Serve(w, inner, slice_s, ref));
    c.traced.Append(Serve(w, timing, slice_s, ref));
  }
  c.cache = session.cache().stats();
  c.attempted = c.plain.attempted + c.traced.attempted;
  c.failed += c.plain.mismatches + c.traced.mismatches;
  for (const auto* errors : {&c.plain.errors, &c.traced.errors}) {
    for (const std::string& e : *errors) std::printf("error: %s\n", e.c_str());
    if (!errors->empty()) ++c.failed;
  }

  ReplayAndProbe(w, ref, 0.2 * options.seconds, log, &c);
  if (w.fleet) {
    c.fleet_resets = fleet.timing->resets();
    c.fleet_unavailable = c.traced.unavailable;
  } else {
    c.fleet_probe = true;
    ProbeFleet(w, options, ref, &c);
  }
  for (TopKProbe& probe : c.topk) ProbeTopK(options.seed, &probe);
  c.spans = log.Snapshot();
  if (w.fleet) c.fleet_spans = c.spans;

  Report report;
  ReportServeAndData(c, report);
  ReportSolverLayers(c, report);
  ReportFleet(c, report);
  ReportOverheadAndShares(c, report);

  // One file per workload, overwritten by each traced run of it.
  const std::string span_path =
      options.run_dir + "/spans-" + w.name + ".jsonl";
  std::vector<Span> all = c.spans;
  if (c.fleet_probe) {
    all.insert(all.end(), c.fleet_spans.begin(), c.fleet_spans.end());
  }
  WriteSpans(all, origin, span_path);
  std::printf("spans: %zu written to %s\n", all.size(), span_path.c_str());

  const long long attempted = std::max<long long>(1, c.attempted);
  const bool correct = c.failed == 0;
  std::printf("%s\n",
              report.Json(correct, attempted, std::min(c.failed, attempted))
                  .c_str());
  return correct ? 0 : 1;
}

}  // namespace perfbench
