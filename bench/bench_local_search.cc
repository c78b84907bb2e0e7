// Move evaluation cost of the search family — not a paper figure: prices
// exact::MoveEvaluator (DESIGN.md §19) against the reference kernel it
// replaced (core::ComputeGroupList on the moved member list) on the same
// relocation trials, and times the two solvers built on it.
//
// Rows: yahoo-shaped synthetic, 2000 users × {500, 5k, 20k} catalogue
// items × {LM/Min, AV/Sum}, k = 5, ℓ = 20, the greedy partition as the
// snapshot. The trials are what one localsearch pass plans for a sample of
// users (200, scaled by GF_BENCH_SCALE with a floor of 10): each user's
// removal from its group plus its addition to every other group. Each row reports the
// median ns per trial for the evaluator (its one-off build reported
// apart) and for the reference over timed rounds, whether every trial's
// satisfaction is identical, and the solve time of a one-pass localsearch
// and a 1200-iteration sa. The validator pins trials_identical and
// reference/evaluator >= 3 on every row (a ratio within one run). The
// final line is the machine-readable BENCH_local_search.json document.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/table_printer.h"
#include "core/formation.h"
#include "core/greedy.h"
#include "core/solver_registry.h"
#include "data/synthetic.h"
#include "eval/sweep_json.h"
#include "exact/move_evaluator.h"
#include "solvers/builtin.h"

namespace {

using namespace groupform;

constexpr int kK = 5;
constexpr int kGroups = 20;

struct Trial {
  int group = 0;
  UserId out = kInvalidUser;
  UserId in = kInvalidUser;
};

struct Row {
  std::int32_t items = 0;
  const char* semantics = "";
  std::int64_t trials = 0;
  double evaluator_build_ms = 0.0;
  double evaluator_ns_per_trial = 0.0;
  double reference_ns_per_trial = 0.0;
  double speedup = 0.0;
  bool trials_identical = false;
  double localsearch_ms = 0.0;
  double sa_ms = 0.0;
};

/// The reference: the moved member list through the top-k kernel, as every
/// trial was scored before the evaluator.
double ReferenceTrial(const core::FormationProblem& problem,
                      const grouprec::GroupScorer& scorer,
                      const std::vector<std::vector<UserId>>& groups,
                      const Trial& t) {
  std::vector<UserId> members = groups[static_cast<std::size_t>(t.group)];
  if (t.out != kInvalidUser) {
    members.erase(std::find(members.begin(), members.end(), t.out));
  }
  if (t.in != kInvalidUser) {
    members.push_back(t.in);
    std::sort(members.begin(), members.end());
  }
  if (members.empty()) return 0.0;
  const auto list = core::ComputeGroupList(problem, scorer, members);
  return core::AggregateListSatisfaction(
      problem, static_cast<int>(members.size()), list);
}

/// Milliseconds of one registry solve.
double SolveMs(const core::FormationProblem& problem, const char* solver,
               const core::SolverOptions& options) {
  auto created = core::SolverRegistry::Global().Create(solver, problem,
                                                       options);
  if (!created.ok()) {
    std::fprintf(stderr, "create %s: %s\n", solver,
                 created.status().ToString().c_str());
    return -1.0;
  }
  common::Stopwatch watch;
  const auto result = (*created)->Solve(/*seed=*/7);
  const double ms = watch.ElapsedSeconds() * 1e3;
  if (!result.ok()) {
    std::fprintf(stderr, "solve %s: %s\n", solver,
                 result.status().ToString().c_str());
    return -1.0;
  }
  return ms;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "local_search", "DESIGN.md §19 (incremental move evaluation)",
      "ns per relocation trial, MoveEvaluator vs ComputeGroupList, on "
      "greedy partitions at 500/5k/20k items; one-pass localsearch and "
      "1200-iteration sa solve times");
  solvers::EnsureBuiltinSolversRegistered();

  const double scale = bench::BenchScale();
  const std::int32_t users = 2000;
  const std::int32_t sampled = bench::Scaled(200, scale, 10);
  const int rounds = scale >= 1.0 ? 7 : 3;

  std::vector<Row> rows;
  for (const std::int32_t items : {500, 5'000, 20'000}) {
    const data::RatingMatrix matrix = data::GenerateLatentFactor(
        data::YahooMusicLikeConfig(users, items, /*seed=*/11));
    for (const bool lm : {true, false}) {
      core::FormationProblem problem;
      problem.matrix = &matrix;
      problem.semantics = lm ? grouprec::Semantics::kLeastMisery
                             : grouprec::Semantics::kAggregateVoting;
      problem.aggregation =
          lm ? grouprec::Aggregation::kMin : grouprec::Aggregation::kSum;
      problem.k = kK;
      problem.max_groups = kGroups;
      const grouprec::GroupScorer scorer = problem.MakeScorer();
      const auto greedy = core::RunGreedy(problem);
      if (!greedy.ok()) {
        std::fprintf(stderr, "greedy: %s\n",
                     greedy.status().ToString().c_str());
        return 1;
      }
      std::vector<std::vector<UserId>> groups(kGroups);
      std::vector<int> group_of(static_cast<std::size_t>(users), 0);
      for (std::size_t g = 0; g < greedy->groups.size(); ++g) {
        groups[g] = greedy->groups[g].members;
        for (const UserId u : groups[g]) {
          group_of[static_cast<std::size_t>(u)] = static_cast<int>(g);
        }
      }
      // A localsearch pass's relocation trials for every users/sampled-th
      // user (one empty target at most, as the planner does).
      std::vector<Trial> trials;
      for (UserId u = 0; u < users; u += users / sampled) {
        const int from = group_of[static_cast<std::size_t>(u)];
        trials.push_back({from, u, kInvalidUser});
        bool empty_seen = false;
        for (int to = 0; to < kGroups; ++to) {
          if (to == from) continue;
          if (groups[static_cast<std::size_t>(to)].empty()) {
            if (empty_seen) continue;
            empty_seen = true;
          }
          trials.push_back({to, kInvalidUser, u});
        }
      }

      Row row;
      row.items = items;
      row.semantics = lm ? "lm" : "av";
      row.trials = static_cast<std::int64_t>(trials.size());
      common::Stopwatch build_watch;
      const exact::MoveEvaluator evaluator(problem, scorer, groups);
      row.evaluator_build_ms = build_watch.ElapsedSeconds() * 1e3;
      if (!evaluator.exact()) {
        std::fprintf(stderr, "FAIL: the evaluator fell back on %s\n",
                     problem.ToString().c_str());
        return 1;
      }
      row.trials_identical = true;
      for (const Trial& t : trials) {
        row.trials_identical =
            row.trials_identical &&
            evaluator.Trial(t.group, t.out, t.in) ==
                ReferenceTrial(problem, scorer, groups, t);
      }
      // Alternate the two paths each round so drift hits both alike.
      std::vector<double> fast;
      std::vector<double> slow;
      double sink = 0.0;
      for (int round = 0; round < rounds; ++round) {
        common::Stopwatch fast_watch;
        for (const Trial& t : trials) {
          sink += evaluator.Trial(t.group, t.out, t.in);
        }
        fast.push_back(fast_watch.ElapsedSeconds() * 1e9 /
                       static_cast<double>(trials.size()));
        common::Stopwatch slow_watch;
        for (const Trial& t : trials) {
          sink += ReferenceTrial(problem, scorer, groups, t);
        }
        slow.push_back(slow_watch.ElapsedSeconds() * 1e9 /
                       static_cast<double>(trials.size()));
      }
      if (sink == 0.123) std::fprintf(stderr, "unlikely sink\n");
      std::sort(fast.begin(), fast.end());
      std::sort(slow.begin(), slow.end());
      row.evaluator_ns_per_trial = fast[fast.size() / 2];
      row.reference_ns_per_trial = slow[slow.size() / 2];
      row.speedup = row.reference_ns_per_trial / row.evaluator_ns_per_trial;

      row.localsearch_ms = SolveMs(
          problem, "localsearch",
          core::SolverOptions().Set("max_passes", "1"));
      row.sa_ms = SolveMs(problem, "sa",
                          core::SolverOptions().Set("iterations", "1200"));
      rows.push_back(row);
    }
  }

  common::TablePrinter table({"items", "sem", "trials", "build ms",
                              "eval ns", "ref ns", "ref/eval", "same",
                              "ls 1-pass ms", "sa 1200 ms"});
  for (const Row& row : rows) {
    table.AddRow({common::StrFormat("%d", row.items), row.semantics,
                  common::StrFormat("%lld",
                                    static_cast<long long>(row.trials)),
                  common::StrFormat("%.2f", row.evaluator_build_ms),
                  common::StrFormat("%.0f", row.evaluator_ns_per_trial),
                  common::StrFormat("%.0f", row.reference_ns_per_trial),
                  common::StrFormat("%.1fx", row.speedup),
                  row.trials_identical ? "yes" : "NO",
                  common::StrFormat("%.1f", row.localsearch_ms),
                  common::StrFormat("%.1f", row.sa_ms)});
  }
  std::printf("%s\n", table.ToString().c_str());

  bool all_ok = true;
  for (const Row& row : rows) {
    all_ok = all_ok && row.trials_identical && row.localsearch_ms >= 0.0 &&
             row.sa_ms >= 0.0;
  }
  if (!all_ok) std::fprintf(stderr, "FAIL: see the rows above\n");

  eval::JsonWriter w;
  w.BeginObject();
  eval::AppendBenchEnvelope(w, "local_search");
  w.Key("all_ok").Bool(all_ok);
  w.Key("local_search").BeginObject();
  w.Key("users").Int(users);
  w.Key("groups").Int(kGroups);
  w.Key("k").Int(kK);
  w.Key("rows").BeginArray();
  for (const Row& row : rows) {
    w.BeginObject();
    w.Key("items").Int(row.items);
    w.Key("semantics").String(row.semantics);
    w.Key("trials").Int(static_cast<long long>(row.trials));
    w.Key("evaluator_build_ms").Number(row.evaluator_build_ms);
    w.Key("evaluator_ns_per_trial").Number(row.evaluator_ns_per_trial);
    w.Key("reference_ns_per_trial").Number(row.reference_ns_per_trial);
    w.Key("trials_identical").Bool(row.trials_identical);
    w.Key("localsearch_one_pass_ms").Number(row.localsearch_ms);
    w.Key("sa_1200_ms").Number(row.sa_ms);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  w.EndObject();
  const int json_rc = eval::EmitBenchJson("local_search", w.str());
  return all_ok && json_rc == 0 ? 0 : 1;
}
