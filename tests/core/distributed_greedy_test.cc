// RunDistributedGreedy with honest hooks is GreedyFormer::Run(), bit for
// bit: every semantics x aggregation pair, several shard counts, residual
// scans local and sharded. This is the property the fleet broker's
// scatter/gather mode stands on — the hooks here compute locally exactly
// what a worker answers over the wire (and wire doubles round-trip
// bit-exactly), so equality here plus wire-identity there gives
// end-to-end byte-identical fleet responses.
#include "core/distributed_greedy.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/formation.h"
#include "core/greedy.h"
#include "data/synthetic.h"
#include "grouprec/semantics.h"
#include "recsys/preference_lists.h"

namespace groupform::core {
namespace {

using grouprec::Aggregation;
using grouprec::Semantics;

void ExpectBitwiseEqual(const FormationResult& got,
                        const FormationResult& want) {
  EXPECT_EQ(got.algorithm, want.algorithm);
  EXPECT_EQ(got.objective, want.objective);  // exact, not near
  ASSERT_EQ(got.groups.size(), want.groups.size());
  for (std::size_t g = 0; g < want.groups.size(); ++g) {
    EXPECT_EQ(got.groups[g].members, want.groups[g].members) << "group " << g;
    EXPECT_EQ(got.groups[g].satisfaction, want.groups[g].satisfaction)
        << "group " << g;
    ASSERT_EQ(got.groups[g].recommendation.items.size(),
              want.groups[g].recommendation.items.size())
        << "group " << g;
    for (int i = 0; i < want.groups[g].recommendation.size(); ++i) {
      EXPECT_EQ(got.groups[g].recommendation.items[i],
                want.groups[g].recommendation.items[i])
          << "group " << g << " item " << i;
    }
  }
}

/// Hooks that answer from the problem's own store — the local stand-in
/// for a worker fleet serving the same instance.
DistributedGreedyHooks LocalHooks(const FormationProblem& problem,
                                  int user_shards,
                                  std::int64_t residual_shard_items) {
  DistributedGreedyHooks hooks;
  hooks.user_shards = user_shards;
  hooks.residual_shard_items = residual_shard_items;
  hooks.user_topk = [&problem](UserId begin, UserId end)
      -> common::StatusOr<std::vector<std::vector<data::RatingEntry>>> {
    const data::RatingStore store = problem.Store();
    std::vector<std::vector<data::RatingEntry>> lists;
    lists.reserve(static_cast<std::size_t>(end - begin));
    for (UserId u = begin; u < end; ++u) {
      lists.push_back(recsys::TopKList(store, u, problem.k));
    }
    return lists;
  };
  if (residual_shard_items > 0) {
    hooks.group_topk_range =
        [&problem](std::span<const UserId> members, ItemId begin,
                   ItemId end) -> common::StatusOr<grouprec::GroupTopK> {
      return problem.MakeScorer().TopK(
          members, problem.k, grouprec::CandidateFilter::Range(begin, end));
    };
  }
  return hooks;
}

TEST(DistributedGreedyTest, MatchesGreedyFormerBitwiseEverywhere) {
  data::SyntheticConfig config;
  config.num_users = 120;
  config.num_items = 40;
  config.num_taste_clusters = 6;
  config.seed = 7;
  const data::RatingMatrix matrix = data::GenerateLatentFactor(config);

  for (const Semantics semantics :
       {Semantics::kLeastMisery, Semantics::kAggregateVoting}) {
    for (const Aggregation aggregation :
         {Aggregation::kMax, Aggregation::kMin, Aggregation::kSum}) {
      FormationProblem problem;
      problem.matrix = &matrix;
      problem.semantics = semantics;
      problem.aggregation = aggregation;
      problem.k = 3;
      problem.max_groups = 8;
      const auto want = GreedyFormer(problem).Run();
      ASSERT_TRUE(want.ok()) << want.status();
      for (const int shards : {1, 3, 7}) {
        for (const std::int64_t residual_items : {0ll, 11ll}) {
          SCOPED_TRACE(testing::Message()
                       << "sem=" << static_cast<int>(semantics)
                       << " agg=" << static_cast<int>(aggregation)
                       << " shards=" << shards
                       << " residual_items=" << residual_items);
          const auto hooks = LocalHooks(problem, shards, residual_items);
          const auto got = RunDistributedGreedy(problem, hooks);
          ASSERT_TRUE(got.ok()) << got.status();
          ExpectBitwiseEqual(*got, *want);
        }
      }
    }
  }
}

TEST(DistributedGreedyTest, MoreShardsThanUsersStillExact) {
  data::SyntheticConfig config;
  config.num_users = 5;
  config.num_items = 12;
  config.seed = 3;
  const data::RatingMatrix matrix = data::GenerateLatentFactor(config);
  FormationProblem problem;
  problem.matrix = &matrix;
  problem.k = 4;
  problem.max_groups = 3;
  const auto want = GreedyFormer(problem).Run();
  ASSERT_TRUE(want.ok()) << want.status();
  const auto hooks = LocalHooks(problem, 64, 5);
  const auto got = RunDistributedGreedy(problem, hooks);
  ASSERT_TRUE(got.ok()) << got.status();
  ExpectBitwiseEqual(*got, *want);
}

TEST(DistributedGreedyTest, UserTopkFailurePropagates) {
  data::SyntheticConfig config;
  config.num_users = 10;
  config.num_items = 8;
  const data::RatingMatrix matrix = data::GenerateLatentFactor(config);
  FormationProblem problem;
  problem.matrix = &matrix;
  DistributedGreedyHooks hooks;
  hooks.user_shards = 2;
  hooks.user_topk = [](UserId, UserId)
      -> common::StatusOr<std::vector<std::vector<data::RatingEntry>>> {
    return common::Status::Unavailable("worker down");
  };
  const auto got = RunDistributedGreedy(problem, hooks);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), common::StatusCode::kUnavailable);
}

TEST(DistributedGreedyTest, ResidualFailureFallsBackLocally) {
  data::SyntheticConfig config;
  config.num_users = 60;
  config.num_items = 30;
  config.num_taste_clusters = 3;
  const data::RatingMatrix matrix = data::GenerateLatentFactor(config);
  FormationProblem problem;
  problem.matrix = &matrix;
  problem.k = 3;
  problem.max_groups = 4;  // few groups → a residual group forms
  const auto want = GreedyFormer(problem).Run();
  ASSERT_TRUE(want.ok()) << want.status();
  auto hooks = LocalHooks(problem, 3, 7);
  hooks.group_topk_range =
      [](std::span<const UserId>, ItemId,
         ItemId) -> common::StatusOr<grouprec::GroupTopK> {
    return common::Status::Unavailable("worker down");
  };
  const auto got = RunDistributedGreedy(problem, hooks);
  ASSERT_TRUE(got.ok()) << got.status();
  ExpectBitwiseEqual(*got, *want);
}

}  // namespace
}  // namespace groupform::core
