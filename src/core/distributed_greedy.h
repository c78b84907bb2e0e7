#ifndef GROUPFORM_CORE_DISTRIBUTED_GREEDY_H_
#define GROUPFORM_CORE_DISTRIBUTED_GREEDY_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/formation.h"
#include "data/rating_matrix.h"
#include "grouprec/group_scorer.h"

namespace groupform::core {

/// Remote-computation hooks for RunDistributedGreedy. The fleet broker
/// implements them over groupform.shard/1 requests to the worker fleet;
/// tests implement them locally (which must reproduce GreedyFormer
/// bitwise — see distributed_greedy_test).
struct DistributedGreedyHooks {
  /// Returns the personal top-k list of every user in [begin, end), in
  /// ascending user order (element i is user begin + i). Must equal
  /// recsys::TopKList(store, u, problem.k) exactly — workers serving the
  /// same instance guarantee this, and canonical JSON doubles round-trip
  /// bit-exactly over the wire.
  using UserTopK = std::function<common::StatusOr<
      std::vector<std::vector<data::RatingEntry>>>(UserId begin, UserId end)>;

  /// Returns the residual group's partial top-k over the item range
  /// [begin, end), i.e. scorer.TopK(members, k,
  /// grouprec::CandidateFilter::Range(begin, end)).
  using GroupTopKRange =
      std::function<common::StatusOr<grouprec::GroupTopK>(
          std::span<const UserId> members, ItemId begin, ItemId end)>;

  UserTopK user_topk;               // required
  GroupTopKRange group_topk_range;  // optional (see residual_shard_items)

  /// Number of user-range shards the population is split into for the
  /// top-k extraction phase (clamped to [1, num_users]).
  int user_shards = 1;

  /// Item-range shard width for the residual group's catalogue scan.
  /// <= 0, or group_topk_range unset, or candidate_depth != 0 keeps the
  /// residual local (the candidate-depth path scans a truncated union,
  /// not the catalogue — nothing worth distributing).
  std::int64_t residual_shard_items = 0;
};

/// GreedyFormer::Run() with its two bulk phases — per-user top-k
/// extraction and the residual group's catalogue top-k — outsourced
/// through `hooks`, for the fleet broker's scatter/gather
/// mode. The order-sensitive work stays local and sequential: hook
/// results are folded into buckets in ascending user order (AV seq_scores
/// are floating-point sums, which are not associative), and residual
/// partials merge under MergeShardTopK (exact). With hooks that honour
/// their contracts the result is bitwise identical to GreedyFormer::Run()
/// at any shard count. A failed group_topk_range call falls back to the
/// local residual scan (the caller holds the instance anyway); a failed
/// user_topk call is returned as-is — there is no cheap local fallback
/// for a phase that is the point of distributing.
common::StatusOr<FormationResult> RunDistributedGreedy(
    const FormationProblem& problem, const DistributedGreedyHooks& hooks);

}  // namespace groupform::core

#endif  // GROUPFORM_CORE_DISTRIBUTED_GREEDY_H_
