#include "grouprec/group_recommender.h"

#include <algorithm>

#include "common/strings.h"

namespace groupform::grouprec {

using common::Status;
using common::StatusOr;

GroupRecommender::GroupRecommender(const data::RatingMatrix& matrix,
                                   Options options)
    : matrix_(&matrix),
      options_(options),
      scorer_(matrix, GroupScorer::Options{options.semantics,
                                           options.missing}) {}

StatusOr<GroupRecommender::GroupRecommendation> GroupRecommender::Recommend(
    std::span<const UserId> group) const {
  if (group.empty()) {
    return Status::InvalidArgument("group must not be empty");
  }
  if (options_.k < 1) {
    return Status::InvalidArgument("k must be >= 1");
  }
  for (UserId u : group) {
    if (u < 0 || u >= matrix_->num_users()) {
      return Status::OutOfRange(
          common::StrFormat("user %d out of range", u));
    }
  }
  GroupRecommendation out;
  out.list = scorer_.TopK(
      group, options_.k,
      CandidateFilter::ForDepth(options_.candidate_depth, options_.k));
  out.satisfaction =
      GroupScorer::AggregateSatisfaction(out.list, options_.aggregation);
  return out;
}

StatusOr<std::vector<GroupRecommender::GroupRecommendation>>
GroupRecommender::RecommendAll(
    const std::vector<std::vector<UserId>>& groups) const {
  std::vector<GroupRecommendation> out;
  out.reserve(groups.size());
  for (const auto& group : groups) {
    GF_ASSIGN_OR_RETURN(auto recommendation, Recommend(group));
    out.push_back(std::move(recommendation));
  }
  return out;
}

}  // namespace groupform::grouprec
