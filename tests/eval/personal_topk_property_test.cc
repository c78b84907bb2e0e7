// "Store present ≡ store absent" (DESIGN.md §20): a problem that carries
// a shared recsys::PreferenceListStore (serving's path) must produce the
// same bits as one that does not (library, CLI and sweep callers, where
// each reader builds its own) — the greedy family's partitions,
// recommendations and objectives, and all four response metrics. Swept
// over LM/AV × Min/Sum/Max × every missing policy × dense/compact, at
// k = 1, 5, longer than the longest row, and INT_MAX, on an instance with
// empty rows, rows shorter than k and tied ratings. The store's lists and
// the two metrics that read them are further pinned against a full sort
// of each row, the pre-kernel definition of a personal top-k.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/formation.h"
#include "core/solver_registry.h"
#include "data/compact_matrix.h"
#include "data/rating_matrix.h"
#include "eval/metrics.h"
#include "eval/weighted_objective.h"
#include "recsys/preference_lists.h"
#include "solvers/builtin.h"

namespace groupform {
namespace {

using core::FormationProblem;
using core::FormationResult;
using grouprec::Aggregation;
using grouprec::MissingRatingPolicy;
using grouprec::Semantics;

constexpr std::int32_t kUsers = 30;
constexpr std::int32_t kItems = 40;
constexpr int kLongestRow = 25;

/// Every seventh row empty, every seventh (offset 1) one or two cells,
/// the rest 3..kLongestRow cells; ratings on 1..5, so ties abound.
data::RatingMatrix TestMatrix() {
  common::Rng rng(29);
  data::RatingMatrixBuilder builder(kUsers, kItems,
                                    data::RatingScale{1.0, 5.0});
  for (UserId u = 0; u < kUsers; ++u) {
    if (u % 7 == 0) continue;
    const auto length =
        u % 7 == 1 ? rng.UniformInt(1, 2) : rng.UniformInt(3, kLongestRow);
    std::vector<ItemId> items(kItems);
    for (ItemId i = 0; i < kItems; ++i) items[static_cast<std::size_t>(i)] = i;
    rng.Shuffle(items);
    for (std::int64_t j = 0; j < length; ++j) {
      EXPECT_TRUE(builder
                      .AddRating(u, items[static_cast<std::size_t>(j)],
                                 static_cast<double>(rng.UniformInt(1, 5)))
                      .ok());
    }
  }
  return std::move(builder).Build();
}

/// The pre-kernel personal top-k: the whole row fully sorted, truncated.
std::vector<data::RatingEntry> SortedPrefix(const data::RatingStore& store,
                                            UserId user, int k) {
  std::vector<data::RatingEntry> row;
  store.VisitRow(user, [&row](ItemId item, Rating rating) {
    row.push_back({item, rating});
  });
  std::sort(row.begin(), row.end(), recsys::PrefersEntry);
  row.resize(std::min(row.size(), static_cast<std::size_t>(k)));
  return row;
}

std::vector<ItemId> Items(const grouprec::GroupTopK& list) {
  std::vector<ItemId> items;
  for (const auto& si : list.items) items.push_back(si.item);
  return items;
}

/// grouprec::UserNdcg as it was before the selection kernel: the ideal
/// DCG sums the gains of the whole row sorted descending, first k.
double ReferenceUserNdcg(const data::RatingStore& store, UserId user,
                         const std::vector<ItemId>& recommended, int k,
                         MissingRatingPolicy missing) {
  const auto gain = [](double relevance) {
    return std::exp2(relevance) - 1.0;
  };
  const auto discount = [](int pos) {
    return 1.0 / std::log2(static_cast<double>(pos) + 2.0);
  };
  double dcg = 0.0;
  int pos = 0;
  for (const ItemId item : recommended) {
    if (pos >= k) break;
    const auto r = store.GetRating(user, item);
    double rel = 0.0;
    if (r.has_value()) {
      rel = *r;
    } else if (missing == MissingRatingPolicy::kSkipUser) {
      continue;
    } else if (missing == MissingRatingPolicy::kScaleMin) {
      rel = store.scale().min;
    }
    dcg += gain(rel) * discount(pos);
    ++pos;
  }
  std::vector<double> ratings;
  store.VisitRow(user, [&ratings](ItemId, Rating rating) {
    ratings.push_back(rating);
  });
  std::sort(ratings.begin(), ratings.end(), std::greater<>());
  double idcg = 0.0;
  for (int j = 0; j < k && j < static_cast<int>(ratings.size()); ++j) {
    idcg += gain(ratings[static_cast<std::size_t>(j)]) * discount(j);
  }
  return idcg <= 0.0 ? 0.0 : dcg / idcg;
}

/// MeanUserNdcg over ReferenceUserNdcg.
double ReferenceMeanUserNdcg(const FormationProblem& problem,
                             const FormationResult& result) {
  const data::RatingStore store = problem.Store();
  double total = 0.0;
  std::int64_t users = 0;
  for (const auto& g : result.groups) {
    const auto items = Items(g.recommendation);
    for (const UserId u : g.members) {
      total += ReferenceUserNdcg(store, u, items, problem.k, problem.missing);
      ++users;
    }
  }
  return users > 0 ? total / static_cast<double>(users) : 0.0;
}

/// FullySatisfiedFraction with every personal list from SortedPrefix.
double ReferenceFullySatisfied(const FormationProblem& problem,
                               const FormationResult& result) {
  const data::RatingStore store = problem.Store();
  std::int64_t satisfied = 0;
  std::int64_t users = 0;
  for (const auto& g : result.groups) {
    auto rec = Items(g.recommendation);
    std::sort(rec.begin(), rec.end());
    for (const UserId u : g.members) {
      ++users;
      std::vector<ItemId> mine;
      for (const auto& e : SortedPrefix(store, u, problem.k)) {
        mine.push_back(e.item);
      }
      std::sort(mine.begin(), mine.end());
      if (mine == rec) ++satisfied;
    }
  }
  return users > 0
             ? static_cast<double>(satisfied) / static_cast<double>(users)
             : 0.0;
}

FormationResult Solve(const std::string& solver,
                      const FormationProblem& problem) {
  auto created =
      core::SolverRegistry::Global().Create(solver, problem, core::SolverOptions());
  EXPECT_TRUE(created.ok()) << created.status();
  if (!created.ok()) return {};
  auto result = (*created)->Solve(7);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? *std::move(result) : FormationResult();
}

void ExpectSameResult(const FormationResult& a, const FormationResult& b) {
  EXPECT_EQ(a.objective, b.objective);  // bitwise
  EXPECT_EQ(a.floor_violations, b.floor_violations);
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (std::size_t g = 0; g < a.groups.size(); ++g) {
    EXPECT_EQ(a.groups[g].members, b.groups[g].members);
    EXPECT_EQ(a.groups[g].satisfaction, b.groups[g].satisfaction);
    EXPECT_EQ(a.groups[g].recommendation.items,
              b.groups[g].recommendation.items);
  }
}

/// The problem's knobs for `solver`: capgreedy gets size bounds and
/// fairgreedy a satisfaction floor, so their repair passes run.
FormationProblem ForSolver(FormationProblem problem,
                           const std::string& solver) {
  if (solver == "capgreedy") {
    problem.constraints.min_group_size = 2;
    problem.constraints.max_group_size = static_cast<int>(
        std::ceil(1.6 * kUsers / static_cast<double>(problem.max_groups)));
  } else if (solver == "fairgreedy") {
    problem.constraints.has_min_user_sat = true;
    problem.constraints.min_user_sat = 3.0;
  }
  return problem;
}

TEST(PersonalTopK, StorePresentEqualsStoreAbsentBitForBit) {
  solvers::EnsureBuiltinSolversRegistered();
  const auto dense = TestMatrix();
  const auto compact = data::CompactRatingMatrix::FromMatrix(dense);
  int cases = 0;
  for (const bool on_dense : {true, false}) {
    for (const auto semantics :
         {Semantics::kLeastMisery, Semantics::kAggregateVoting}) {
      for (const auto aggregation :
           {Aggregation::kMin, Aggregation::kSum, Aggregation::kMax}) {
        for (const auto missing :
             {MissingRatingPolicy::kScaleMin, MissingRatingPolicy::kZero,
              MissingRatingPolicy::kSkipUser}) {
          for (const int k :
               {1, 5, kLongestRow + 5, std::numeric_limits<int>::max()}) {
            FormationProblem absent;
            if (on_dense) {
              absent.matrix = &dense;
            } else {
              absent.compact = &compact;
            }
            absent.semantics = semantics;
            absent.aggregation = aggregation;
            absent.missing = missing;
            absent.k = k;
            absent.max_groups = 4;
            const recsys::PreferenceListStore lists(absent.Store(), k);
            FormationProblem present = absent;
            present.personal_topk = &lists;
            ASSERT_TRUE(present.Validate().ok());
            SCOPED_TRACE(testing::Message()
                         << absent.ToString()
                         << (on_dense ? " dense" : " compact") << " missing "
                         << static_cast<int>(missing));
            ++cases;
            // The selection kernel against a full sort, on the same case.
            for (UserId u = 0; u < kUsers; ++u) {
              const auto expected = SortedPrefix(absent.Store(), u, k);
              const auto actual = lists.TopK(u);
              EXPECT_TRUE(std::equal(actual.begin(), actual.end(),
                                     expected.begin(), expected.end(),
                                     [](const data::RatingEntry& a,
                                        const data::RatingEntry& b) {
                                       return a.item == b.item &&
                                              a.rating == b.rating;
                                     }))
                  << "user " << u;
            }

            for (const std::string solver :
                 {"greedy", "capgreedy", "fairgreedy"}) {
              SCOPED_TRACE(solver);
              const FormationResult without =
                  Solve(solver, ForSolver(absent, solver));
              const FormationResult with =
                  Solve(solver, ForSolver(present, solver));
              ExpectSameResult(without, with);

              EXPECT_EQ(eval::AvgGroupSatisfaction(absent, without),
                        eval::AvgGroupSatisfaction(present, without));
              EXPECT_EQ(eval::MeanPerUserSatisfaction(absent, without),
                        eval::MeanPerUserSatisfaction(present, without));
              const double ndcg = eval::MeanUserNdcg(absent, without);
              EXPECT_EQ(ndcg, eval::MeanUserNdcg(present, without));
              EXPECT_EQ(ndcg, ReferenceMeanUserNdcg(absent, without));
              const double full = eval::FullySatisfiedFraction(absent, without);
              EXPECT_EQ(full, eval::FullySatisfiedFraction(present, without));
              EXPECT_EQ(full, ReferenceFullySatisfied(absent, without));
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 144);
}

TEST(PersonalTopK, ValidateRejectsAStoreOfAnotherShape) {
  const auto matrix = TestMatrix();
  FormationProblem problem;
  problem.matrix = &matrix;
  problem.k = 5;
  const recsys::PreferenceListStore wrong_k(matrix, 4);
  problem.personal_topk = &wrong_k;
  EXPECT_EQ(problem.Validate().code(), common::StatusCode::kInvalidArgument);
  // Serving points the problem at an empty store before registry
  // resolution and fills it after; an unfilled one must not validate.
  recsys::PreferenceListStore assigned;
  EXPECT_EQ(assigned.num_users(), 0);
  problem.personal_topk = &assigned;
  EXPECT_EQ(problem.Validate().code(), common::StatusCode::kInvalidArgument);
  assigned = recsys::PreferenceListStore(matrix, 5);
  EXPECT_TRUE(problem.Validate().ok());
}

}  // namespace
}  // namespace groupform
