// Response-metric cost with and without the request's shared personal
// top-k store — not a paper figure: prices the four metrics every OK
// serve response carries (avg_group_satisfaction, mean_user_rating,
// mean_user_ndcg, fully_satisfied; DESIGN.md §20) on a greedy result.
//
// Rows: yahoo-shaped synthetic, {2000, 5000} users × 20k items, LM/Min at
// (k, ℓ) ∈ {(5, 10), (10, 20)}. Each row reports the median over timed
// rounds of
//   * self_ms: the four calls on a problem without a store, where
//     mean_user_ndcg and fully_satisfied each select every user's top-k
//     themselves (library, CLI and sweep callers);
//   * store_build_ms: one recsys::PreferenceListStore build, the pass
//     serving makes once per request and shares with greedy's step 1;
//   * with_store_ms: the four calls reading that store;
// plus whether the four values are bit-identical both ways and the
// store's bytes. Each round times both paths, so drift hits both alike.
// The validator pins values_identical and
// self_ms / (store_build_ms + with_store_ms) >= 1.2 on every row (a ratio
// within one run). The self path makes the store's selection pass twice
// and the same reads once, so that ratio is below 2 by construction; it
// reads 1.4–1.5 on a 4-core x86 VM. GF_BENCH_SCALE sets only the number
// of rounds. The final line is the machine-readable
// BENCH_response_metrics.json document.
#include <algorithm>
#include <array>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/table_printer.h"
#include "core/formation.h"
#include "core/greedy.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "eval/sweep_json.h"
#include "eval/weighted_objective.h"
#include "recsys/preference_lists.h"

namespace {

using namespace groupform;

constexpr std::int32_t kItems = 20'000;

struct Row {
  std::int32_t users = 0;
  int k = 0;
  int groups = 0;
  double self_ms = 0.0;
  double store_build_ms = 0.0;
  double with_store_ms = 0.0;
  bool values_identical = false;
  std::int64_t store_bytes = 0;
};

using Metrics = std::array<double, 4>;

Metrics FourMetrics(const core::FormationProblem& problem,
                    const core::FormationResult& result) {
  return {eval::AvgGroupSatisfaction(problem, result),
          eval::MeanPerUserSatisfaction(problem, result),
          eval::MeanUserNdcg(problem, result),
          eval::FullySatisfiedFraction(problem, result)};
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

}  // namespace

int main() {
  bench::PrintHeader(
      "response_metrics", "DESIGN.md §20 (one personal top-k pass)",
      "the four response metrics on a greedy result, self-computing vs "
      "reading the request's shared PreferenceListStore, yahoo 2000/5000 "
      "users x 20k items, k in {5, 10}");

  const double scale = bench::BenchScale();
  const int rounds = scale >= 1.0 ? 9 : 5;

  std::vector<Row> rows;
  for (const std::int32_t users : {2000, 5000}) {
    const data::RatingMatrix matrix = data::GenerateLatentFactor(
        data::YahooMusicLikeConfig(users, kItems, /*seed=*/11));
    for (const auto& [k, groups] : {std::pair{5, 10}, std::pair{10, 20}}) {
      core::FormationProblem problem;
      problem.matrix = &matrix;
      problem.k = k;
      problem.max_groups = groups;
      const auto result = core::RunGreedy(problem);
      if (!result.ok()) {
        std::fprintf(stderr, "greedy: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }

      Row row;
      row.users = users;
      row.k = k;
      row.groups = groups;
      std::vector<double> self;
      std::vector<double> build;
      std::vector<double> with_store;
      Metrics self_values{};
      Metrics store_values{};
      for (int round = 0; round < rounds; ++round) {
        common::Stopwatch self_watch;
        self_values = FourMetrics(problem, *result);
        self.push_back(self_watch.ElapsedSeconds() * 1e3);

        common::Stopwatch build_watch;
        const recsys::PreferenceListStore lists(matrix, k);
        build.push_back(build_watch.ElapsedSeconds() * 1e3);
        core::FormationProblem shared = problem;
        shared.personal_topk = &lists;
        common::Stopwatch store_watch;
        store_values = FourMetrics(shared, *result);
        with_store.push_back(store_watch.ElapsedSeconds() * 1e3);
        row.store_bytes = static_cast<std::int64_t>(lists.ByteSize());
      }
      row.self_ms = Median(self);
      row.store_build_ms = Median(build);
      row.with_store_ms = Median(with_store);
      row.values_identical = self_values == store_values;
      rows.push_back(row);
    }
  }

  common::TablePrinter table({"users", "k", "groups", "self ms", "build ms",
                              "with store ms", "self/(build+with)", "same",
                              "store KB"});
  for (const Row& row : rows) {
    table.AddRow(
        {common::StrFormat("%d", row.users), common::StrFormat("%d", row.k),
         common::StrFormat("%d", row.groups),
         common::StrFormat("%.2f", row.self_ms),
         common::StrFormat("%.2f", row.store_build_ms),
         common::StrFormat("%.2f", row.with_store_ms),
         common::StrFormat("%.2fx", row.self_ms / (row.store_build_ms +
                                                    row.with_store_ms)),
         row.values_identical ? "yes" : "NO",
         common::StrFormat("%.0f",
                           static_cast<double>(row.store_bytes) / 1024.0)});
  }
  std::printf("%s\n", table.ToString().c_str());

  bool all_ok = true;
  for (const Row& row : rows) all_ok = all_ok && row.values_identical;
  if (!all_ok) std::fprintf(stderr, "FAIL: metric values differ above\n");

  eval::JsonWriter w;
  w.BeginObject();
  eval::AppendBenchEnvelope(w, "response_metrics");
  w.Key("all_ok").Bool(all_ok);
  w.Key("response_metrics").BeginObject();
  w.Key("items").Int(kItems);
  w.Key("semantics").String("lm");
  w.Key("aggregation").String("min");
  w.Key("rows").BeginArray();
  for (const Row& row : rows) {
    w.BeginObject();
    w.Key("users").Int(row.users);
    w.Key("k").Int(row.k);
    w.Key("groups").Int(row.groups);
    w.Key("self_ms").Number(row.self_ms);
    w.Key("store_build_ms").Number(row.store_build_ms);
    w.Key("with_store_ms").Number(row.with_store_ms);
    w.Key("values_identical").Bool(row.values_identical);
    w.Key("store_bytes").Int(static_cast<long long>(row.store_bytes));
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  w.EndObject();
  const int json_rc = eval::EmitBenchJson("response_metrics", w.str());
  return all_ok && json_rc == 0 ? 0 : 1;
}
