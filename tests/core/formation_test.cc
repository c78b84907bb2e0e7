// FormationProblem / FormationResult plumbing: validation, helpers, and
// the partition checker itself.
#include <gtest/gtest.h>

#include "core/formation.h"
#include "data/paper_examples.h"

namespace groupform {
namespace {

using core::FormationProblem;
using core::FormationResult;
using core::FormedGroup;
using grouprec::Aggregation;
using grouprec::Semantics;

FormationProblem ValidProblem(const data::RatingMatrix& matrix) {
  FormationProblem problem;
  problem.matrix = &matrix;
  problem.k = 2;
  problem.max_groups = 3;
  return problem;
}

TEST(FormationProblem, ValidateCatchesEachBadField) {
  const auto matrix = data::PaperExample1();
  EXPECT_TRUE(ValidProblem(matrix).Validate().ok());

  auto p1 = ValidProblem(matrix);
  p1.matrix = nullptr;
  EXPECT_EQ(p1.Validate().code(), common::StatusCode::kInvalidArgument);

  auto p2 = ValidProblem(matrix);
  p2.k = 0;
  EXPECT_FALSE(p2.Validate().ok());

  auto p3 = ValidProblem(matrix);
  p3.max_groups = -1;
  EXPECT_FALSE(p3.Validate().ok());

  auto p4 = ValidProblem(matrix);
  p4.candidate_depth = -2;
  EXPECT_FALSE(p4.Validate().ok());
}

TEST(FormationProblem, ToStringNamesSemanticsAndShape) {
  const auto matrix = data::PaperExample1();
  auto problem = ValidProblem(matrix);
  problem.semantics = Semantics::kAggregateVoting;
  problem.aggregation = Aggregation::kSum;
  EXPECT_EQ(problem.ToString(), "AV/SUM k=2 ell=3 n=6 m=3");
}

FormationResult ManualResult() {
  FormationResult result;
  FormedGroup g1;
  g1.members = {0, 1, 2};
  g1.satisfaction = 4.0;
  FormedGroup g2;
  g2.members = {3, 4, 5};
  g2.satisfaction = 2.0;
  result.groups = {g1, g2};
  result.objective = 6.0;
  return result;
}

TEST(ValidatePartition, AcceptsAWellFormedPartition) {
  const auto matrix = data::PaperExample1();
  const auto problem = ValidProblem(matrix);
  EXPECT_TRUE(core::ValidatePartition(problem, ManualResult()).ok());
}

TEST(ValidatePartition, RejectsOverlapMissingUsersAndBadObjective) {
  const auto matrix = data::PaperExample1();
  const auto problem = ValidProblem(matrix);

  auto overlap = ManualResult();
  overlap.groups[1].members = {2, 4, 5};  // user 2 twice, user 3 missing
  EXPECT_FALSE(core::ValidatePartition(problem, overlap).ok());

  auto missing = ManualResult();
  missing.groups[1].members = {3, 4};  // user 5 uncovered
  EXPECT_FALSE(core::ValidatePartition(problem, missing).ok());

  auto bad_objective = ManualResult();
  bad_objective.objective = 99.0;
  EXPECT_FALSE(core::ValidatePartition(problem, bad_objective).ok());

  auto too_many = ManualResult();
  too_many.groups = {FormedGroup{{0}, {}, 1.0}, FormedGroup{{1}, {}, 1.0},
                     FormedGroup{{2}, {}, 1.0}, FormedGroup{{3}, {}, 1.0}};
  // 4 groups but max_groups = 3 (also uncovered users, but the group-count
  // check fires first conceptually; either failure is acceptable).
  EXPECT_FALSE(core::ValidatePartition(problem, too_many).ok());

  auto empty_group = ManualResult();
  empty_group.groups.push_back(FormedGroup{});
  EXPECT_FALSE(core::ValidatePartition(problem, empty_group).ok());
}

TEST(MissingSlotScore, FollowsPolicyAndSemantics) {
  const auto matrix = data::PaperExample1();  // scale 1..5
  auto problem = ValidProblem(matrix);

  problem.semantics = Semantics::kLeastMisery;
  problem.missing = grouprec::MissingRatingPolicy::kScaleMin;
  EXPECT_DOUBLE_EQ(core::MissingSlotScore(problem, 4), 1.0);

  problem.semantics = Semantics::kAggregateVoting;
  EXPECT_DOUBLE_EQ(core::MissingSlotScore(problem, 4), 4.0);  // r_min * |g|

  problem.missing = grouprec::MissingRatingPolicy::kZero;
  EXPECT_DOUBLE_EQ(core::MissingSlotScore(problem, 4), 0.0);

  problem.missing = grouprec::MissingRatingPolicy::kSkipUser;
  EXPECT_DOUBLE_EQ(core::MissingSlotScore(problem, 4), 1.0);
}

TEST(AggregateListSatisfaction, ShortListsFallBackToMissingSlots) {
  const auto matrix = data::PaperExample1();
  auto problem = ValidProblem(matrix);
  problem.k = 5;  // catalogue has only 3 items -> list exhausted at 3
  grouprec::GroupTopK list;
  list.items = {{0, 4.0}, {1, 3.0}, {2, 2.0}};

  problem.aggregation = Aggregation::kSum;
  // Catalogue exhausted: aggregates as-is.
  EXPECT_DOUBLE_EQ(core::AggregateListSatisfaction(problem, 2, list), 9.0);

  // Now pretend the list is short because candidates ran out (2 of 3).
  grouprec::GroupTopK short_list;
  short_list.items = {{0, 4.0}, {1, 3.0}};
  problem.k = 3;
  problem.aggregation = Aggregation::kMin;
  EXPECT_DOUBLE_EQ(core::AggregateListSatisfaction(problem, 2, short_list),
                   1.0);  // missing slot at r_min
  problem.aggregation = Aggregation::kSum;
  EXPECT_DOUBLE_EQ(core::AggregateListSatisfaction(problem, 2, short_list),
                   8.0);  // 4 + 3 + 1
  problem.aggregation = Aggregation::kMax;
  EXPECT_DOUBLE_EQ(core::AggregateListSatisfaction(problem, 2, short_list),
                   4.0);
}

TEST(ScoreGroups, EmptyGroupsScoreZeroWithAnEmptyList) {
  const auto matrix = data::PaperExample1();
  const auto problem = ValidProblem(matrix);
  const auto scorer = problem.MakeScorer();
  const std::vector<std::vector<UserId>> groups = {{}, {0, 1}, {}};
  const auto scores = core::ScoreGroups(problem, scorer, groups);
  ASSERT_EQ(scores.size(), groups.size());
  for (const std::size_t g : {0, 2}) {
    EXPECT_EQ(scores[g].satisfaction, 0.0);
    EXPECT_TRUE(scores[g].list.empty());
  }
  EXPECT_EQ(scores[1].list.size(), problem.k);
}

}  // namespace
}  // namespace groupform
