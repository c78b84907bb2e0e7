#include "eval/metrics.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "recsys/preference_lists.h"

namespace groupform::eval {

double AvgGroupSatisfaction(const core::FormationProblem& problem,
                            const core::FormationResult& result) {
  if (result.groups.empty()) return 0.0;
  const grouprec::GroupScorer scorer = problem.MakeScorer();
  double total = 0.0;
  for (const auto& g : result.groups) {
    // Sum of per-item group scores over the group's recommended list,
    // recomputed so every algorithm is measured identically.
    const auto list = core::ComputeGroupList(problem, scorer, g.members);
    for (const auto& si : list.items) total += si.score;
  }
  return total / static_cast<double>(result.groups.size());
}

data::FivePointSummary GroupSizeSummary(
    const core::FormationResult& result) {
  return data::Summarize(result.GroupSizes());
}

double MeanPerUserSatisfaction(const core::FormationProblem& problem,
                               const core::FormationResult& result) {
  const data::RatingStore matrix = problem.Store();
  const double r_min = matrix.scale().min;
  double total = 0.0;
  std::int64_t users = 0;
  for (const auto& g : result.groups) {
    for (UserId u : g.members) {
      double sum = 0.0;
      int count = 0;
      for (const auto& si : g.recommendation.items) {
        double r;
        const auto rating = matrix.GetRating(u, si.item);
        if (rating.has_value()) {
          r = *rating;
        } else if (problem.missing ==
                   grouprec::MissingRatingPolicy::kSkipUser) {
          continue;
        } else if (problem.missing == grouprec::MissingRatingPolicy::kZero) {
          r = 0.0;
        } else {
          r = r_min;
        }
        sum += r;
        ++count;
      }
      total += count > 0 ? sum / static_cast<double>(count) : r_min;
      ++users;
    }
  }
  return users > 0 ? total / static_cast<double>(users) : 0.0;
}

double FullySatisfiedFraction(const core::FormationProblem& problem,
                              const core::FormationResult& result) {
  std::optional<recsys::PreferenceListStore> owned;
  const recsys::PreferenceListStore& lists =
      core::PersonalTopK(problem, owned);
  std::int64_t satisfied = 0;
  std::int64_t users = 0;
  for (const auto& g : result.groups) {
    // The group's recommended item set, sorted for set comparison.
    std::vector<ItemId> rec_items;
    rec_items.reserve(g.recommendation.items.size());
    for (const auto& si : g.recommendation.items) {
      rec_items.push_back(si.item);
    }
    std::sort(rec_items.begin(), rec_items.end());
    for (UserId u : g.members) {
      ++users;
      const auto personal = lists.TopK(u);
      if (personal.size() != rec_items.size()) continue;
      std::vector<ItemId> personal_items;
      personal_items.reserve(personal.size());
      for (const auto& e : personal) personal_items.push_back(e.item);
      std::sort(personal_items.begin(), personal_items.end());
      if (personal_items == rec_items) ++satisfied;
    }
  }
  return users > 0
             ? static_cast<double>(satisfied) / static_cast<double>(users)
             : 0.0;
}

}  // namespace groupform::eval
