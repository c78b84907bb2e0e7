// MoveEvaluator (DESIGN.md §19): every trial g+u, g-u and g-u+v equals the
// reference kernel (core::ComputeGroupList + AggregateListSatisfaction on
// the moved member list) bit for bit, over LM/AV × rmin/zero/skip ×
// Min/Sum/Max × dense/compact × depth 0/union, on partitions with empty
// and singleton groups, k beyond the candidate count, scales with
// r_min < 0, and along chains of applied moves. Off-grid ratings must take
// the fallback under AV and stay exact under LM. The suite also counts,
// from the reference side, that completeness flips, removals of a unique
// minimum and score ties all actually occur.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/formation.h"
#include "data/compact_matrix.h"
#include "data/rating_matrix.h"
#include "exact/move_evaluator.h"

namespace groupform {
namespace {

using core::FormationProblem;
using exact::MoveEvaluator;
using grouprec::Aggregation;
using grouprec::MissingRatingPolicy;
using grouprec::Semantics;

/// A sparse random matrix. `grid` 0 draws continuous ratings; otherwise
/// ratings are multiples of 1/grid inside the scale.
data::RatingMatrix RandomMatrix(std::int32_t users, std::int32_t items,
                                data::RatingScale scale, double density,
                                int grid, std::uint64_t seed) {
  common::Rng rng(seed);
  data::RatingMatrixBuilder builder(users, items, scale);
  for (UserId u = 0; u < users; ++u) {
    for (ItemId i = 0; i < items; ++i) {
      if (rng.NextDouble() >= density) continue;
      double r = scale.min + rng.NextDouble() * scale.range();
      if (grid > 0) r = std::round(r * grid) / grid;
      if (r == 0.0) r = 0.0;  // no -0.0 (it forces the fallback)
      EXPECT_TRUE(builder.AddRating(u, i, r).ok());
    }
  }
  return std::move(builder).Build();
}

double Reference(const FormationProblem& problem,
                 const grouprec::GroupScorer& scorer,
                 std::vector<UserId> members) {
  if (members.empty()) return 0.0;
  std::sort(members.begin(), members.end());
  const auto list = core::ComputeGroupList(problem, scorer, members);
  return core::AggregateListSatisfaction(
      problem, static_cast<int>(members.size()), list);
}

/// What the reference side saw: evidence that the hard cases ran.
struct Coverage {
  int flips = 0;            // completeness flips of a pure add or removal
  int unique_min_gone = 0;  // removal of an item's unique minimum
  int ties = 0;             // equal adjacent scores in a reference list
  int trials = 0;
};

std::vector<UserId> Moved(std::vector<UserId> members, UserId out,
                          UserId in) {
  if (out != kInvalidUser) {
    members.erase(std::find(members.begin(), members.end(), out));
  }
  if (in != kInvalidUser) members.push_back(in);
  std::sort(members.begin(), members.end());
  return members;
}

void CountCoverage(const FormationProblem& problem,
                   const grouprec::GroupScorer& scorer,
                   const std::vector<UserId>& members, UserId out, UserId in,
                   Coverage& coverage) {
  const data::RatingStore store = problem.Store();
  const int n = static_cast<int>(members.size());
  for (ItemId item = 0; item < store.num_items(); ++item) {
    int raters = 0;
    int at_min = 0;
    double min = 0.0;
    for (const UserId m : members) {
      const auto r = store.GetRating(m, item);
      if (!r.has_value()) continue;
      if (raters == 0 || *r < min) {
        min = *r;
        at_min = 0;
      }
      if (*r == min) ++at_min;
      ++raters;
    }
    const auto out_r = out == kInvalidUser
                           ? std::optional<Rating>()
                           : store.GetRating(out, item);
    const auto in_r = in == kInvalidUser ? std::optional<Rating>()
                                         : store.GetRating(in, item);
    if (in != kInvalidUser && out == kInvalidUser && raters == n &&
        !in_r.has_value()) {
      ++coverage.flips;
    }
    if (out != kInvalidUser && in == kInvalidUser && raters == n - 1 &&
        n > 1 && !out_r.has_value()) {
      ++coverage.flips;
    }
    if (out_r.has_value() && raters > 1 && at_min == 1 && *out_r == min) {
      ++coverage.unique_min_gone;
    }
  }
  if (Moved(members, out, in).empty()) return;
  const auto list =
      core::ComputeGroupList(problem, scorer, Moved(members, out, in));
  for (std::size_t i = 1; i < list.items.size(); ++i) {
    if (list.items[i].score == list.items[i - 1].score) ++coverage.ties;
  }
}

/// One configuration: a partition with a singleton group and an empty
/// group, random trials against the reference, then a chain of applied
/// moves re-checked after every step.
void CheckConfig(const FormationProblem& problem, std::uint64_t seed,
                 Coverage& coverage, bool on_grid = true) {
  const grouprec::GroupScorer scorer = problem.MakeScorer();
  const std::int32_t n = problem.Store().num_users();
  const int ell = problem.max_groups;
  common::Rng rng(seed);
  std::vector<std::vector<UserId>> groups(static_cast<std::size_t>(ell));
  std::vector<int> group_of(static_cast<std::size_t>(n));
  for (UserId u = 0; u < n; ++u) {
    // Group 0 is a singleton, group ell-1 starts empty.
    const int g =
        u == 0 ? 0
               : 1 + static_cast<int>(rng.NextUint64(
                         static_cast<std::uint64_t>(ell - 2)));
    groups[static_cast<std::size_t>(g)].push_back(u);
    group_of[static_cast<std::size_t>(u)] = g;
  }
  MoveEvaluator evaluator(problem, scorer, groups);
  if (!on_grid && problem.semantics == Semantics::kAggregateVoting) {
    EXPECT_FALSE(evaluator.exact());  // the fallback; callers use the kernel
    return;
  }
  ASSERT_TRUE(evaluator.exact());

  const auto random_trial = [&](int g, bool count) {
    const auto& members = groups[static_cast<std::size_t>(g)];
    UserId out = kInvalidUser;
    UserId in = kInvalidUser;
    const auto kind = rng.NextUint64(4);  // add, remove, swap, as-is
    if ((kind == 1 || kind == 2) && !members.empty()) {
      out = members[static_cast<std::size_t>(rng.NextUint64(members.size()))];
    }
    if (kind == 0 || kind == 2) {
      const auto v = static_cast<UserId>(
          rng.NextUint64(static_cast<std::uint64_t>(n)));
      if (group_of[static_cast<std::size_t>(v)] != g) in = v;
    }
    const double expected =
        Reference(problem, scorer, Moved(members, out, in));
    const double actual = evaluator.Trial(g, out, in);
    EXPECT_EQ(actual, expected)
        << problem.ToString() << " group " << g << " out " << out << " in "
        << in;
    if (count) CountCoverage(problem, scorer, members, out, in, coverage);
    ++coverage.trials;
  };

  for (int t = 0; t < 120; ++t) {
    random_trial(static_cast<int>(rng.NextUint64(
                     static_cast<std::uint64_t>(ell))),
                 /*count=*/t % 4 == 0);
  }

  // A chain of applied relocations and swaps: after every step each group
  // as-is and a few trials on the two touched groups must still match.
  for (int step = 0; step < 40; ++step) {
    const auto u = static_cast<UserId>(
        rng.NextUint64(static_cast<std::uint64_t>(n)));
    const int from = group_of[static_cast<std::size_t>(u)];
    const int to = static_cast<int>(
        rng.NextUint64(static_cast<std::uint64_t>(ell)));
    if (to == from) continue;
    auto& src = groups[static_cast<std::size_t>(from)];
    auto& dst = groups[static_cast<std::size_t>(to)];
    if (rng.NextUint64(3) == 0 && !dst.empty()) {
      const UserId v =
          dst[static_cast<std::size_t>(rng.NextUint64(dst.size()))];
      evaluator.Apply(from, u, v);
      evaluator.Apply(to, v, u);
      src = Moved(src, u, v);
      dst = Moved(dst, v, u);
      group_of[static_cast<std::size_t>(v)] = from;
    } else {
      evaluator.Apply(from, u, kInvalidUser);
      evaluator.Apply(to, kInvalidUser, u);
      src = Moved(src, u, kInvalidUser);
      dst = Moved(dst, kInvalidUser, u);
    }
    group_of[static_cast<std::size_t>(u)] = to;
    for (int g = 0; g < ell; ++g) {
      EXPECT_EQ(evaluator.Trial(g, kInvalidUser, kInvalidUser),
                Reference(problem, scorer, groups[static_cast<std::size_t>(g)]))
          << problem.ToString() << " step " << step << " group " << g;
    }
    for (int t = 0; t < 4; ++t) random_trial(t % 2 == 0 ? from : to, false);
  }
}

struct Instance {
  std::string name;
  /// Whether the compact copy's dequantized ratings stay on the dyadic
  /// grid (8-bit cells hold an integer grid exactly, half stars not).
  bool compact_on_grid = true;
  std::unique_ptr<data::RatingMatrix> dense;
  std::unique_ptr<data::CompactRatingMatrix> compact;
};

std::vector<Instance> Instances() {
  std::vector<Instance> out;
  const auto add = [&out](std::string name, data::RatingMatrix matrix,
                          bool compact_on_grid = true) {
    Instance instance;
    instance.name = std::move(name);
    instance.compact_on_grid = compact_on_grid;
    instance.dense = std::make_unique<data::RatingMatrix>(std::move(matrix));
    instance.compact = std::make_unique<data::CompactRatingMatrix>(
        data::CompactRatingMatrix::FromMatrix(*instance.dense, 8));
    out.push_back(std::move(instance));
  };
  // Dense-ish integer ratings: complete items, flips and ties abound.
  add("int-dense", RandomMatrix(26, 12, {1.0, 5.0}, 0.8, 1, 11));
  // Sparse half-star ratings over a wider catalogue.
  add("half-sparse", RandomMatrix(30, 40, {0.5, 5.0}, 0.25, 2, 12),
      /*compact_on_grid=*/false);
  // A scale with r_min < 0.
  add("negative", RandomMatrix(24, 16, {-2.0, 3.0}, 0.6, 1, 13));
  // Wide and nearly complete: groups touch more items than a cached order
  // head holds, and a mover rates most of the head, so trials read past
  // it and applied moves shrink heads until they are rebuilt.
  add("dense-wide", RandomMatrix(24, 90, {1.0, 5.0}, 0.95, 1, 14));
  return out;
}

TEST(MoveEvaluatorProperty, TrialsMatchTheReferenceEverywhere) {
  Coverage coverage;
  std::uint64_t seed = 1;
  for (const Instance& instance : Instances()) {
    for (const bool compact : {false, true}) {
      for (const Semantics semantics :
           {Semantics::kLeastMisery, Semantics::kAggregateVoting}) {
        for (const MissingRatingPolicy missing :
             {MissingRatingPolicy::kScaleMin, MissingRatingPolicy::kZero,
              MissingRatingPolicy::kSkipUser}) {
          for (const Aggregation aggregation :
               {Aggregation::kMin, Aggregation::kSum, Aggregation::kMax}) {
            for (const int depth : {0, 2}) {
              FormationProblem problem;
              if (compact) {
                problem.compact = instance.compact.get();
              } else {
                problem.matrix = instance.dense.get();
              }
              problem.semantics = semantics;
              problem.aggregation = aggregation;
              problem.missing = missing;
              problem.candidate_depth = depth;
              problem.k = 3;
              problem.max_groups = 6;
              SCOPED_TRACE(instance.name + (compact ? " compact " : " dense ") +
                           problem.ToString() + " depth " +
                           std::to_string(depth));
              CheckConfig(problem, seed++, coverage,
                          !compact || instance.compact_on_grid);
            }
          }
        }
      }
    }
  }
  EXPECT_GT(coverage.flips, 100);
  EXPECT_GT(coverage.unique_min_gone, 100);
  EXPECT_GT(coverage.ties, 100);
  EXPECT_GT(coverage.trials, 10000);
}

TEST(MoveEvaluatorProperty, KBeyondTheCandidateCount) {
  Coverage coverage;
  // 6 items and k = 9: depth-0 lists hold the whole catalogue; union
  // lists at depth 1 (effective max(1, k) = 9) hold what the members rated.
  // On the negative scale, lists run into the untouched score from both
  // sides (zero and skip put items above, at and below it). k = INT_MAX,
  // which the wire accepts, must size nothing by k.
  const auto matrix = RandomMatrix(20, 6, {1.0, 5.0}, 0.35, 1, 21);
  const auto wide = RandomMatrix(20, 30, {1.0, 5.0}, 0.15, 1, 22);
  const auto negative = RandomMatrix(20, 30, {-2.0, 3.0}, 0.3, 1, 23);
  std::uint64_t seed = 100;
  for (const int k : {9, std::numeric_limits<int>::max()}) {
    for (const data::RatingMatrix* m : {&matrix, &wide, &negative}) {
      for (const Semantics semantics :
           {Semantics::kLeastMisery, Semantics::kAggregateVoting}) {
        for (const MissingRatingPolicy missing :
             {MissingRatingPolicy::kScaleMin, MissingRatingPolicy::kZero,
              MissingRatingPolicy::kSkipUser}) {
          for (const Aggregation aggregation :
               {Aggregation::kMin, Aggregation::kSum, Aggregation::kMax}) {
            for (const int depth : {0, 1}) {
              FormationProblem problem;
              problem.matrix = m;
              problem.semantics = semantics;
              problem.aggregation = aggregation;
              problem.missing = missing;
              problem.candidate_depth = depth;
              problem.k = k;
              problem.max_groups = 5;
              SCOPED_TRACE(problem.ToString() + " depth " +
                           std::to_string(depth));
              CheckConfig(problem, seed++, coverage);
            }
          }
        }
      }
    }
  }
}

TEST(MoveEvaluatorProperty, OffGridRatingsFallBackUnderAvAndSignedZeroAlways) {
  const auto matrix = RandomMatrix(22, 14, {1.0, 5.0}, 0.6, 0, 31);
  for (const MissingRatingPolicy missing :
       {MissingRatingPolicy::kScaleMin, MissingRatingPolicy::kZero,
        MissingRatingPolicy::kSkipUser}) {
    FormationProblem problem;
    problem.matrix = &matrix;
    problem.missing = missing;
    problem.k = 3;
    problem.max_groups = 5;
    std::vector<std::vector<UserId>> groups(5);
    for (UserId u = 0; u < 22; ++u) groups[u % 5].push_back(u);

    problem.semantics = Semantics::kAggregateVoting;
    EXPECT_FALSE(
        MoveEvaluator(problem, problem.MakeScorer(), groups).exact());

    // LM uses only min and counts, so it stays exact on any ratings but
    // -0.0, where min(-0.0, 0.0) depends on the argument order.
    problem.semantics = Semantics::kLeastMisery;
    Coverage coverage;
    for (const Aggregation aggregation :
         {Aggregation::kMin, Aggregation::kSum, Aggregation::kMax}) {
      problem.aggregation = aggregation;
      CheckConfig(problem, 40 + static_cast<std::uint64_t>(aggregation),
                  coverage);
    }
  }

  data::RatingMatrixBuilder builder(3, 2, {-1.0, 1.0});
  ASSERT_TRUE(builder.AddRating(0, 0, -0.0).ok());
  ASSERT_TRUE(builder.AddRating(1, 0, 0.0).ok());
  ASSERT_TRUE(builder.AddRating(2, 1, 1.0).ok());
  const data::RatingMatrix signed_zero = std::move(builder).Build();
  FormationProblem problem;
  problem.matrix = &signed_zero;
  problem.k = 1;
  problem.max_groups = 2;
  const std::vector<std::vector<UserId>> groups = {{0, 1}, {2}};
  for (const Semantics semantics :
       {Semantics::kLeastMisery, Semantics::kAggregateVoting}) {
    problem.semantics = semantics;
    EXPECT_FALSE(
        MoveEvaluator(problem, problem.MakeScorer(), groups).exact());
  }
}

}  // namespace
}  // namespace groupform
