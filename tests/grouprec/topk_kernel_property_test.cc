// Randomized property test of the one top-k kernel, GroupScorer::TopK
// (DESIGN.md §18): under every semantics × missing policy × backend and
// every candidate filter kind, the kernel's list equals a brute-force
// reference that scores each candidate with ItemScore and fully sorts
// under BetterScoredItem — bit for bit, item for item.
#include <algorithm>
#include <numeric>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "data/compact_matrix.h"
#include "data/rating_matrix.h"
#include "data/rating_store.h"
#include "grouprec/group_scorer.h"

namespace groupform {
namespace {

using data::RatingMatrix;
using data::RatingScale;
using grouprec::CandidateFilter;
using grouprec::GroupScorer;
using grouprec::GroupTopK;
using grouprec::MissingRatingPolicy;
using grouprec::Semantics;

/// A random sparse matrix: 2–10 users (about one in five with an empty
/// row) over 1–40 items, ratings drawn on the scale's integer grid (so
/// ties are common) or continuous.
RatingMatrix RandomMatrix(common::Rng& rng, RatingScale scale,
                          bool integer) {
  const auto users = static_cast<std::int32_t>(rng.UniformInt(2, 10));
  const auto items = static_cast<std::int32_t>(rng.UniformInt(1, 40));
  data::RatingMatrixBuilder builder(users, items, scale);
  for (UserId u = 0; u < users; ++u) {
    if (rng.Bernoulli(0.2)) continue;
    const double density = rng.Uniform(0.05, 0.7);
    for (ItemId i = 0; i < items; ++i) {
      if (!rng.Bernoulli(density)) continue;
      const double rating =
          integer ? static_cast<double>(rng.UniformInt(
                        static_cast<std::int64_t>(scale.min),
                        static_cast<std::int64_t>(scale.max)))
                  : rng.Uniform(scale.min, scale.max);
      EXPECT_TRUE(builder.AddRating(u, i, rating).ok());
    }
  }
  return std::move(builder).Build();
}

/// The score of an item no member rated (the DESIGN.md §18 table).
double UntouchedConstant(Semantics semantics, MissingRatingPolicy policy,
                         int group_size, double r_min) {
  switch (policy) {
    case MissingRatingPolicy::kScaleMin:
      return semantics == Semantics::kAggregateVoting ? group_size * r_min
                                                      : r_min;
    case MissingRatingPolicy::kZero:
      return 0.0;
    case MissingRatingPolicy::kSkipUser:
      return r_min;
  }
  return r_min;
}

/// Every candidate scored by ItemScore, fully sorted, truncated to k.
GroupTopK Reference(const GroupScorer& scorer, std::span<const UserId> group,
                    int k, std::span<const ItemId> candidates) {
  GroupTopK list;
  for (const ItemId item : candidates) {
    list.items.push_back({item, scorer.ItemScore(group, item)});
  }
  std::sort(list.items.begin(), list.items.end(),
            grouprec::BetterScoredItem);
  list.items.resize(std::min<std::size_t>(static_cast<std::size_t>(k),
                                          list.items.size()));
  return list;
}

/// The union of each member's top-`depth` items by (rating desc, item
/// asc): the candidates of CandidateFilter::Union(depth).
std::vector<ItemId> ReferenceUnion(const data::RatingStore& store,
                                   std::span<const UserId> group, int depth) {
  std::vector<ItemId> out;
  for (const UserId u : group) {
    std::vector<std::pair<double, ItemId>> row;
    store.VisitRow(u, [&row](ItemId item, Rating rating) {
      row.push_back({-rating, item});
    });
    std::sort(row.begin(), row.end());
    for (std::size_t i = 0;
         i < row.size() && i < static_cast<std::size_t>(depth); ++i) {
      out.push_back(row[i].second);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

enum class Backend { kDense, kCompact };

class TopKKernelPropertyTest
    : public testing::TestWithParam<
          std::tuple<Semantics, MissingRatingPolicy, Backend>> {};

TEST_P(TopKKernelPropertyTest, EveryFilterMatchesBruteForceReference) {
  const auto [semantics, policy, backend] = GetParam();
  GroupScorer::Options options;
  options.semantics = semantics;
  options.missing = policy;
  common::Rng rng(static_cast<std::uint64_t>(semantics) * 100 +
                  static_cast<std::uint64_t>(policy) * 10 +
                  static_cast<std::uint64_t>(backend) + 1);
  // Cases where a rated candidate ties, or falls below, the untouched
  // constant — the merge must order those exactly too.
  int ties = 0;
  int below = 0;
  int lists = 0;
  // A scale with r_min < 0 lets rated items score below the constant
  // (under zero, and AV under skip); the continuous scale breaks ties.
  const std::vector<std::pair<RatingScale, bool>> scales = {
      {{1.0, 5.0}, true}, {{-2.0, 3.0}, true}, {{1.0, 5.0}, false}};
  for (const auto& [scale, integer] : scales) {
    for (int trial = 0; trial < 40; ++trial) {
      const RatingMatrix dense = RandomMatrix(rng, scale, integer);
      const auto compact = data::CompactRatingMatrix::FromMatrix(dense);
      const data::RatingStore store =
          backend == Backend::kDense ? data::RatingStore(dense)
                                     : data::RatingStore(compact);
      const GroupScorer scorer(store, options);
      const std::int32_t num_items = store.num_items();

      // One member up to six; every user with an empty row is as likely
      // to be picked as any other.
      const auto size = rng.UniformInt(1, std::min(6, store.num_users()));
      std::vector<UserId> group;
      for (const auto pick :
           rng.SampleWithoutReplacement(store.num_users(), size)) {
        group.push_back(static_cast<UserId>(pick));
      }
      const double constant = UntouchedConstant(
          semantics, policy, static_cast<int>(group.size()), scale.min);

      std::vector<ItemId> all(static_cast<std::size_t>(num_items));
      std::iota(all.begin(), all.end(), 0);
      const auto begin = static_cast<ItemId>(rng.UniformInt(0, num_items));
      const auto end = static_cast<ItemId>(rng.UniformInt(begin, num_items));
      const std::vector<ItemId> range(all.begin() + begin, all.begin() + end);
      std::vector<ItemId> set;
      for (const ItemId i : all) {
        if (rng.Bernoulli(0.5)) set.push_back(i);
      }
      const int depth = static_cast<int>(rng.UniformInt(1, 5));

      const std::vector<std::pair<CandidateFilter, std::vector<ItemId>>>
          cases = {{CandidateFilter::AllItems(), all},
                   {CandidateFilter::Range(begin, end), range},
                   {CandidateFilter::Set(set), set},
                   {CandidateFilter::Union(depth),
                    ReferenceUnion(store, group, depth)}};
      for (const auto& [filter, candidates] : cases) {
        // k from 1 up to three past the candidate count.
        const int k = static_cast<int>(rng.UniformInt(
            1, static_cast<std::int64_t>(candidates.size()) + 3));
        const GroupTopK expected = Reference(scorer, group, k, candidates);
        const GroupTopK actual = scorer.TopK(group, k, filter);
        ASSERT_EQ(actual.items, expected.items)
            << "trial " << trial << " filter "
            << static_cast<int>(filter.kind) << " k " << k << " scale ["
            << scale.min << ", " << scale.max << "]";
        ++lists;
        for (const ItemId item : candidates) {
          bool rated = false;
          for (const UserId u : group) {
            rated = rated || store.GetRating(u, item).has_value();
          }
          const double score = scorer.ItemScore(group, item);
          if (!rated) {
            EXPECT_EQ(score, constant);
          } else if (score == constant) {
            ++ties;
          } else if (score < constant) {
            ++below;
          }
        }
      }
    }
  }
  EXPECT_EQ(lists, 3 * 40 * 4);
  EXPECT_GT(ties, 0);
  // A rated item scores below the constant only when a rating can pull
  // it under: a negative rating against zero, or an AV sum of negative
  // ratings against r_min under skip. Elsewhere the constant is a floor.
  const bool can_fall_below =
      policy == MissingRatingPolicy::kZero ||
      (policy == MissingRatingPolicy::kSkipUser &&
       semantics == Semantics::kAggregateVoting);
  if (can_fall_below) {
    EXPECT_GT(below, 0);
  } else {
    EXPECT_EQ(below, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SemanticsPolicyBackend, TopKKernelPropertyTest,
    testing::Combine(testing::Values(Semantics::kLeastMisery,
                                     Semantics::kAggregateVoting),
                     testing::Values(MissingRatingPolicy::kScaleMin,
                                     MissingRatingPolicy::kZero,
                                     MissingRatingPolicy::kSkipUser),
                     testing::Values(Backend::kDense, Backend::kCompact)));

TEST(TopKKernel, ScratchIsPerThreadAndReusedAcrossCatalogues) {
  // Alternating catalogue sizes on the pool's threads: each call must see
  // a clean scratch whatever the previous call on that thread scored.
  common::Rng rng(5);
  std::vector<RatingMatrix> matrices;
  for (int m = 0; m < 6; ++m) {
    matrices.push_back(RandomMatrix(rng, RatingScale{1.0, 5.0}, true));
  }
  const auto run = [&matrices](std::int64_t call) {
    const RatingMatrix& matrix =
        matrices[static_cast<std::size_t>(call) % matrices.size()];
    const GroupScorer scorer(matrix, {});
    std::vector<UserId> group;
    for (UserId u = 0; u < matrix.num_users(); u += 2) group.push_back(u);
    return scorer.TopK(group, 4);
  };
  std::vector<GroupTopK> serial;
  for (std::int64_t call = 0; call < 60; ++call) serial.push_back(run(call));
  std::vector<GroupTopK> parallel(serial.size());
  common::ThreadPool pool(4);
  pool.ParallelFor(static_cast<std::int64_t>(parallel.size()),
                   [&](std::int64_t call) {
                     parallel[static_cast<std::size_t>(call)] = run(call);
                   });
  for (std::size_t call = 0; call < serial.size(); ++call) {
    EXPECT_EQ(parallel[call].items, serial[call].items) << "call " << call;
  }
}

TEST(TopKKernelDeathTest, RejectsMalformedFilters) {
  data::RatingMatrixBuilder builder(1, 4, RatingScale{1.0, 5.0});
  const RatingMatrix matrix = std::move(builder).Build();
  const GroupScorer scorer(matrix, {});
  const std::vector<UserId> group = {0};
  const std::vector<ItemId> unsorted = {2, 1};
  const std::vector<ItemId> out_of_range = {1, 4};
  EXPECT_DEATH(scorer.TopK(group, 2, CandidateFilter::Set(unsorted)), "");
  EXPECT_DEATH(scorer.TopK(group, 2, CandidateFilter::Set(out_of_range)),
               "");
  EXPECT_DEATH(scorer.TopK(group, 2, CandidateFilter::Range(0, 5)), "");
}

}  // namespace
}  // namespace groupform
