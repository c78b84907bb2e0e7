#include "grouprec/weighted.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "recsys/preference_lists.h"

namespace groupform::grouprec {
namespace {

double GainOf(double relevance) { return std::exp2(relevance) - 1.0; }

double DiscountOf(int pos) {
  return 1.0 / std::log2(static_cast<double>(pos) + 2.0);
}

}  // namespace

double PositionWeight(PositionWeighting scheme, int pos) {
  GF_DCHECK(pos >= 0);
  switch (scheme) {
    case PositionWeighting::kUniform:
      return 1.0;
    case PositionWeighting::kInversePosition:
      return 1.0 / (static_cast<double>(pos) + 1.0);
    case PositionWeighting::kLogInverse:
      return DiscountOf(pos);
  }
  return 1.0;
}

double WeightedSumSatisfaction(const GroupTopK& list,
                               PositionWeighting scheme) {
  double total = 0.0;
  for (int pos = 0; pos < list.size(); ++pos) {
    total += PositionWeight(scheme, pos) *
             list.items[static_cast<std::size_t>(pos)].score;
  }
  return total;
}

double UserNdcg(const data::RatingStore& store, UserId user,
                std::span<const ItemId> recommended, int k,
                MissingRatingPolicy missing) {
  return UserNdcg(store, user, recommended, k, missing,
                  recsys::TopKList(store, user, k));
}

double UserNdcg(const data::RatingStore& store, UserId user,
                std::span<const ItemId> recommended, int k,
                MissingRatingPolicy missing,
                std::span<const data::RatingEntry> ideal) {
  GF_CHECK_GT(k, 0);
  const double r_min = store.scale().min;
  const auto relevance = [&](ItemId item) -> double {
    const auto r = store.GetRating(user, item);
    if (r.has_value()) return *r;
    switch (missing) {
      case MissingRatingPolicy::kScaleMin:
        return r_min;
      case MissingRatingPolicy::kZero:
        return 0.0;
      case MissingRatingPolicy::kSkipUser:
        return kMissingRating;
    }
    return r_min;
  };

  // DCG of the recommended list, truncated at k.
  double dcg = 0.0;
  int pos = 0;
  for (ItemId item : recommended) {
    if (pos >= k) break;
    const double rel = relevance(item);
    if (rel == kMissingRating) continue;  // kSkipUser: position not counted
    dcg += GainOf(rel) * DiscountOf(pos);
    ++pos;
  }

  // Ideal DCG: the user's own k highest ratings (rating desc, item asc).
  GF_DCHECK(ideal.size() <= static_cast<std::size_t>(k));
  double idcg = 0.0;
  for (std::size_t j = 0; j < ideal.size(); ++j) {
    idcg += GainOf(ideal[j].rating) * DiscountOf(static_cast<int>(j));
  }
  if (idcg <= 0.0) return 0.0;
  return dcg / idcg;
}

double GroupNdcgSatisfaction(const data::RatingStore& store,
                             std::span<const UserId> group,
                             std::span<const ItemId> recommended, int k,
                             Semantics semantics,
                             MissingRatingPolicy missing) {
  if (group.empty()) return 0.0;
  double min_ndcg = std::numeric_limits<double>::infinity();
  double sum_ndcg = 0.0;
  for (UserId u : group) {
    const double ndcg = UserNdcg(store, u, recommended, k, missing);
    min_ndcg = std::min(min_ndcg, ndcg);
    sum_ndcg += ndcg;
  }
  return semantics == Semantics::kLeastMisery ? min_ndcg : sum_ndcg;
}

}  // namespace groupform::grouprec
