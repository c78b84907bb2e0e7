#include "eval/weighted_objective.h"

#include <optional>
#include <vector>

namespace groupform::eval {
namespace {

std::vector<ItemId> ListItems(const grouprec::GroupTopK& list) {
  std::vector<ItemId> items;
  items.reserve(list.items.size());
  for (const auto& si : list.items) items.push_back(si.item);
  return items;
}

}  // namespace

double WeightedSumObjective(const core::FormationProblem& problem,
                            const core::FormationResult& result,
                            grouprec::PositionWeighting scheme) {
  const grouprec::GroupScorer scorer = problem.MakeScorer();
  double total = 0.0;
  for (const auto& g : result.groups) {
    const auto list = core::ComputeGroupList(problem, scorer, g.members);
    total += grouprec::WeightedSumSatisfaction(list, scheme);
  }
  return total;
}

double NdcgObjective(const core::FormationProblem& problem,
                     const core::FormationResult& result) {
  double total = 0.0;
  for (const auto& g : result.groups) {
    const auto items = ListItems(g.recommendation);
    total += grouprec::GroupNdcgSatisfaction(problem.Store(), g.members,
                                             items, problem.k,
                                             problem.semantics,
                                             problem.missing);
  }
  return total;
}

double MeanUserNdcg(const core::FormationProblem& problem,
                    const core::FormationResult& result) {
  std::optional<recsys::PreferenceListStore> owned;
  const recsys::PreferenceListStore& lists =
      core::PersonalTopK(problem, owned);
  const data::RatingStore store = problem.Store();
  double total = 0.0;
  std::int64_t users = 0;
  for (const auto& g : result.groups) {
    const auto items = ListItems(g.recommendation);
    for (UserId u : g.members) {
      total += grouprec::UserNdcg(store, u, items, problem.k,
                                  problem.missing, lists.TopK(u));
      ++users;
    }
  }
  return users > 0 ? total / static_cast<double>(users) : 0.0;
}

}  // namespace groupform::eval
