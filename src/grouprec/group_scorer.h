#ifndef GROUPFORM_GROUPREC_GROUP_SCORER_H_
#define GROUPFORM_GROUPREC_GROUP_SCORER_H_

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "data/rating_store.h"
#include "grouprec/semantics.h"

namespace groupform::grouprec {

/// One item with its group score.
struct ScoredItem {
  ItemId item = kInvalidItem;
  double score = 0.0;

  friend bool operator==(const ScoredItem&, const ScoredItem&) = default;
};

/// A group's recommended top-k list: items sorted by group score descending,
/// rating ties broken by ascending item id (the library-wide tie rule).
/// May hold fewer than k items when the candidate pool is smaller.
struct GroupTopK {
  std::vector<ScoredItem> items;

  bool empty() const { return items.empty(); }
  int size() const { return static_cast<int>(items.size()); }
};

/// The library-wide scored-item ordering: score descending, ties broken
/// by ascending item id. A strict total order over distinct items — the
/// one definition shared by the top-k kernel and by the fleet's
/// partial-top-k merge (core::MergeShardTopK), so re-sorting merged
/// partials always reproduces exactly the single-call sequence.
inline bool BetterScoredItem(const ScoredItem& a, const ScoredItem& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.item < b.item;
}

/// One item's observed ratings within a group: how many members rated it,
/// their minimum and their sum. GroupScorer::ScoreOf resolves it into the
/// item's group score; the top-k kernel and the search family's move
/// evaluator (exact/move_evaluator.h) both score through it.
struct ItemAccum {
  int raters = 0;
  double min = std::numeric_limits<double>::infinity();
  double sum = 0.0;
};

/// Resolves one item's accumulated ratings into its group score in a
/// `group_size`-member group under the semantics and missing policy (the
/// DESIGN.md §18.1 table). The one definition behind GroupScorer's
/// ItemScore, TopK, ScoreOf and UntouchedScore.
inline double ScoreFromAccum(const ItemAccum& acc, int group_size,
                             Semantics semantics, MissingRatingPolicy missing,
                             double r_min) {
  // A zero-size group (precondition violation upstream) must not count as
  // "complete": acc.min would be the +inf sentinel and leak out.
  const bool complete = acc.raters == group_size && group_size > 0;
  switch (missing) {
    case MissingRatingPolicy::kScaleMin:
      if (semantics == Semantics::kLeastMisery) {
        return complete ? acc.min : r_min;
      }
      return acc.sum +
             static_cast<double>(group_size - acc.raters) * r_min;
    case MissingRatingPolicy::kZero:
      if (semantics == Semantics::kLeastMisery) {
        // A missing member contributes 0, which caps the min whenever the
        // item is incomplete (in-scale ratings can still be negative on
        // exotic scales, hence the std::min).
        if (acc.raters == 0) return 0.0;
        return complete ? acc.min : std::min(acc.min, 0.0);
      }
      return acc.sum;
    case MissingRatingPolicy::kSkipUser:
      if (acc.raters == 0) return r_min;
      return semantics == Semantics::kLeastMisery ? acc.min : acc.sum;
  }
  return r_min;
}

/// The items a GroupScorer::TopK call may return. Non-owning: a set
/// filter's span must outlive the call.
struct CandidateFilter {
  enum class Kind { kAllItems, kRange, kSet, kUnion };

  Kind kind = Kind::kAllItems;
  /// kRange: the item ids [begin, end), within [0, num_items].
  ItemId begin = 0;
  ItemId end = 0;
  /// kSet: ascending, duplicate-free item ids in [0, num_items).
  std::span<const ItemId> set;
  /// kUnion: the union of each member's `depth` personally highest-rated
  /// items (rating desc, item asc) — the truncated candidate set the
  /// paper describes for the greedy algorithms' final group ("sifts
  /// through the top-k items per user"). depth >= k is recommended.
  int depth = 0;

  /// The whole catalogue [0, num_items).
  static CandidateFilter AllItems() { return {}; }
  static CandidateFilter Range(ItemId begin, ItemId end) {
    return {Kind::kRange, begin, end, {}, 0};
  }
  static CandidateFilter Set(std::span<const ItemId> sorted_items) {
    return {Kind::kSet, 0, 0, sorted_items, 0};
  }
  static CandidateFilter Union(int depth) {
    return {Kind::kUnion, 0, 0, {}, depth};
  }
  /// The `candidate_depth` policy of a top-k list: the whole catalogue at
  /// depth 0, otherwise the union at depth max(depth, k).
  static CandidateFilter ForDepth(int depth, int k) {
    return depth == 0 ? AllItems() : Union(std::max(depth, k));
  }
};

/// Computes group scores and group top-k recommendations for arbitrary
/// groups under a chosen semantics (§2.2). This is the "existing group
/// recommender" the formation algorithms plug into: it serves the greedy
/// algorithms' residual group, the clustering baselines, the exact solvers,
/// and all evaluation metrics.
class GroupScorer {
 public:
  struct Options {
    Semantics semantics = Semantics::kLeastMisery;
    MissingRatingPolicy missing = MissingRatingPolicy::kScaleMin;
  };

  /// The backing matrix (dense or compact — RatingStore converts
  /// implicitly from either) must outlive the scorer.
  GroupScorer(data::RatingStore store, Options options);

  const Options& options() const { return options_; }
  const data::RatingStore& store() const { return store_; }

  /// sc(g, i): the group score of one item (Definitions 1 and 2).
  /// O(|g| log d̄) via per-user binary searches.
  double ItemScore(std::span<const UserId> group, ItemId item) const;

  /// The group's top-k list over the candidates `filter` admits: the
  /// min(k, candidates) best under BetterScoredItem, with exactly the
  /// scores ItemScore gives. The one top-k kernel (DESIGN.md §18): it
  /// visits the members' rating rows only, so a call costs
  /// O(R_g + T log k + k) for R_g rated cells of the members and T
  /// touched candidates (plus O(C) for a C-item set) — never work
  /// proportional to the catalogue.
  GroupTopK TopK(std::span<const UserId> group, int k,
                 const CandidateFilter& filter =
                     CandidateFilter::AllItems()) const;

  /// ScoreFromAccum under this scorer's semantics, missing policy and
  /// scale.
  double ScoreOf(const ItemAccum& acc, int group_size) const {
    return ScoreFromAccum(acc, group_size, options_.semantics,
                          options_.missing, store_.scale().min);
  }

  /// The score of an item no member of a `group_size` group rated — the
  /// same for every such item (the DESIGN.md §18.1 table): r_min under LM
  /// and under skip, group_size × r_min under AV with rmin, 0 under zero.
  double UntouchedScore(int group_size) const;

  /// gs(I_k): aggregates a recommended list into the group's satisfaction
  /// score under `aggregation` (§2.3). For kMin the bottom item is the last
  /// element of the (possibly short) list; an empty list scores 0.
  static double AggregateSatisfaction(const GroupTopK& list,
                                      Aggregation aggregation);

 private:
  data::RatingStore store_;
  Options options_;
};

}  // namespace groupform::grouprec

#endif  // GROUPFORM_GROUPREC_GROUP_SCORER_H_
