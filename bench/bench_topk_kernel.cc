// Top-k kernel cost against catalogue size — not a paper figure: prices
// grouprec::GroupScorer::TopK (DESIGN.md §18) on one fixed 8-member group
// whose rated cells stay the same while the catalogue grows from 2k to
// 20k to 200k items. The kernel visits the members' rating rows, never the
// catalogue, so its per-call time must stay flat: a catalogue scan would
// grow 100x across the sweep.
//
// Rows: catalogue size {2k, 20k, 200k} × backend {dense, compact8}. Each
// row reports the group's rated cells, the median ns per call over timed
// batches (each round times every row once, so drift hits all alike), ns
// per rated cell, and whether the list is identical to a brute-force
// reference (ItemScore for every item, then a full sort under
// BetterScoredItem; compact8 rows compare against the dense list — the
// generator's integer-grid ratings quantize exactly). The validator pins
// ns_per_call(200k) < 2 × ns_per_call(2k) per backend. Batch sizes scale
// with GF_BENCH_SCALE; the final line is the machine-readable
// BENCH_topk_kernel.json document.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/table_printer.h"
#include "data/compact_matrix.h"
#include "data/rating_store.h"
#include "data/synthetic.h"
#include "eval/sweep_json.h"
#include "grouprec/group_scorer.h"

namespace {

using namespace groupform;

constexpr int kK = 10;
constexpr std::int32_t kUsers = 64;

struct KernelRow {
  std::string backend;
  std::int32_t items = 0;
  std::int64_t cells = 0;
  double ns_per_call = 0.0;
  double ns_per_cell = 0.0;
  bool topk_identical = false;
};

/// The reference the kernel must reproduce: every item scored one by one.
grouprec::GroupTopK BruteForceTopK(const grouprec::GroupScorer& scorer,
                                   std::span<const UserId> group) {
  grouprec::GroupTopK list;
  for (ItemId item = 0; item < scorer.store().num_items(); ++item) {
    list.items.push_back({item, scorer.ItemScore(group, item)});
  }
  std::sort(list.items.begin(), list.items.end(),
            grouprec::BetterScoredItem);
  list.items.resize(std::min<std::size_t>(kK, list.items.size()));
  return list;
}

/// Mean ns per TopK call over one batch of `calls` calls.
double TimeBatch(const grouprec::GroupScorer& scorer,
                 std::span<const UserId> group, int calls) {
  common::Stopwatch watch;
  std::size_t sink = 0;
  for (int i = 0; i < calls; ++i) {
    sink += scorer.TopK(group, kK).items.size();
  }
  const double ns = watch.ElapsedSeconds() * 1e9 / calls;
  if (sink == 0) std::fprintf(stderr, "empty top-k list\n");
  return ns;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "topk_kernel", "DESIGN.md §18 (the top-k kernel)",
      "GroupScorer::TopK per-call and per-cell cost for one 8-member group "
      "at 2k/20k/200k catalogue items, dense and compact8 backends");

  const double scale = bench::BenchScale();
  const int calls = static_cast<int>(bench::Scaled(2000, scale, 100));
  const int rounds = scale >= 1.0 ? 15 : 7;
  std::vector<UserId> group;
  for (UserId u = 0; u < kUsers; u += 8) group.push_back(u);

  // Deques keep every matrix at a fixed address for the scorers' views.
  std::deque<data::RatingMatrix> dense;
  std::deque<data::CompactRatingMatrix> compact8;
  std::vector<KernelRow> rows;
  std::vector<grouprec::GroupScorer> scorers;
  for (const std::int32_t items : {2'000, 20'000, 200'000}) {
    data::ScaleConfig config;
    config.num_users = kUsers;
    config.num_items = items;
    config.min_ratings_per_user = 12;
    config.max_ratings_per_user = 24;
    config.seed = 7;
    dense.push_back(data::GenerateScaleSparse(config));
    compact8.push_back(data::CompactRatingMatrix::FromMatrix(
        dense.back(), /*rating_bits=*/8));
    std::int64_t cells = 0;
    for (const UserId u : group) cells += dense.back().NumRatingsOf(u);

    const grouprec::GroupScorer dense_scorer(dense.back(), {});
    const grouprec::GroupTopK dense_list = dense_scorer.TopK(group, kK);
    const bool dense_ok =
        dense_list.items == BruteForceTopK(dense_scorer, group).items;
    for (const bool is_dense : {true, false}) {
      scorers.push_back(
          is_dense ? dense_scorer
                   : grouprec::GroupScorer(compact8.back(), {}));
      KernelRow row;
      row.backend = is_dense ? "dense" : "compact8";
      row.items = items;
      row.cells = cells;
      row.topk_identical = dense_ok && scorers.back().TopK(group, kK).items ==
                                           dense_list.items;
      rows.push_back(row);
    }
  }

  // Each round times one batch of every row, so drift in the machine's
  // speed lands on all rows alike; the first round only warms up.
  std::vector<std::vector<double>> ns(rows.size());
  for (int round = 0; round <= rounds; ++round) {
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const double batch = TimeBatch(scorers[r], group, calls);
      if (round > 0) ns[r].push_back(batch);
    }
  }
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::sort(ns[r].begin(), ns[r].end());
    rows[r].ns_per_call = ns[r][ns[r].size() / 2];
    rows[r].ns_per_cell =
        rows[r].ns_per_call / static_cast<double>(rows[r].cells);
  }

  common::TablePrinter table(
      {"backend", "items", "cells", "ns/call", "ns/cell", "topk=ref"});
  for (const auto& row : rows) {
    table.AddRow({row.backend, common::StrFormat("%d", row.items),
                  common::StrFormat("%lld",
                                    static_cast<long long>(row.cells)),
                  common::StrFormat("%.0f", row.ns_per_call),
                  common::StrFormat("%.1f", row.ns_per_cell),
                  row.topk_identical ? "yes" : "NO"});
  }
  std::printf("%s\n", table.ToString().c_str());

  bool all_ok = true;
  for (const auto& row : rows) all_ok = all_ok && row.topk_identical;
  if (!all_ok) std::fprintf(stderr, "FAIL: top-k divergence above\n");

  eval::JsonWriter w;
  w.BeginObject();
  eval::AppendBenchEnvelope(w, "topk_kernel");
  w.Key("all_ok").Bool(all_ok);
  w.Key("topk_kernel").BeginObject();
  w.Key("group_size").Int(static_cast<long long>(group.size()));
  w.Key("k").Int(kK);
  w.Key("rows").BeginArray();
  for (const auto& row : rows) {
    w.BeginObject();
    w.Key("backend").String(row.backend);
    w.Key("items").Int(row.items);
    w.Key("cells").Int(static_cast<long long>(row.cells));
    w.Key("ns_per_call").Number(row.ns_per_call);
    w.Key("ns_per_cell").Number(row.ns_per_cell);
    w.Key("topk_identical").Bool(row.topk_identical);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  w.EndObject();
  const int json_rc = eval::EmitBenchJson("topk_kernel", w.str());
  return all_ok && json_rc == 0 ? 0 : 1;
}
