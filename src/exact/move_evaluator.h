#ifndef GROUPFORM_EXACT_MOVE_EVALUATOR_H_
#define GROUPFORM_EXACT_MOVE_EVALUATOR_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/formation.h"
#include "grouprec/group_scorer.h"

namespace groupform::exact {

/// Incremental trial scoring for the search family (DESIGN.md §19).
///
/// Keeps, per group of a partition, a sparse accumulator for every item a
/// member rated (raters, sum, min with its multiplicity, and the number
/// of members listing the item in their top-depth personal items), the
/// head of the group's order under grouprec::BetterScoredItem, and under
/// LM rmin/zero the complete (raters = |g|) and near-complete (raters =
/// |g| - 1) items. A trial g-out+in then rescores only the movers' rated
/// items plus the items whose completeness flips, and reads every other
/// item from the cached order: O(|row(out)| + |row(in)| + |flips| + k)
/// per trial instead of the group's rated cells.
///
/// Trial results equal core::ComputeGroupList + AggregateListSatisfaction
/// on the moved group bit for bit whenever exact() holds: always under LM,
/// and under AV when every member rating and r_min lie on the dyadic grid
/// (multiples of 2^-10 within ±2^20), where sums are exact in any order.
/// When exact() is false the evaluator holds no cache; callers score
/// trials with the reference kernel instead.
class MoveEvaluator {
 public:
  /// Builds the cache for `groups` (member lists in any order, possibly
  /// empty) on the calling thread. `problem` and `scorer` must outlive the
  /// evaluator; `scorer` must be problem.MakeScorer()'s configuration.
  MoveEvaluator(const core::FormationProblem& problem,
                const grouprec::GroupScorer& scorer,
                std::span<const std::vector<UserId>> groups);

  /// True when Trial reproduces the reference kernel bit for bit.
  bool exact() const { return exact_; }

  /// Satisfaction of group `g` after removing member `out` and adding
  /// non-member `in`; either may be kInvalidUser (both: the group as it
  /// is). An emptied group scores 0. Requires exact(). Thread-safe: each
  /// thread uses its own scratch.
  double Trial(int g, UserId out, UserId in) const;

  /// Commits the move Trial(g, out, in) describes to the cache. A no-op
  /// when !exact(). Not safe concurrently with any other call.
  void Apply(int g, UserId out, UserId in);

 private:
  /// One touched item of one group. min_count > 0: `min` is the exact
  /// minimum, held by min_count raters. min_count == 0 with raters > 0:
  /// the member holding the unique minimum left, and `min` is a strict
  /// lower bound, resolved from the members' rows only when a score
  /// needs it. Under AV the min is not tracked.
  struct Cell {
    int raters = 0;
    int min_count = 0;
    int listed = 0;
    double min = std::numeric_limits<double>::infinity();
    double sum = 0.0;
  };
  struct Group {
    std::vector<UserId> members;  // ascending
    /// The touched items (raters > 0) and their cells, in no particular
    /// order; `table` indexes them.
    std::vector<ItemId> ids;
    std::vector<Cell> cells;
    /// Open-addressing hash of ids (linear probing): a slot holds an index
    /// into cells, kEmptySlot or kErasedSlot. At most half the slots are
    /// in use, erased ones included, so a lookup costs O(1) probes.
    std::vector<std::int32_t> table;
    std::size_t table_used = 0;
    int table_shift = 32;
    /// The head of the group's order: its best candidate touched items
    /// (every touched item at depth 0, the listed ones at depth > 0, none
    /// at the floor under floor_) under BetterScoredItem. Every candidate
    /// not in it ranks below its last entry; order_complete says it holds
    /// them all.
    std::vector<grouprec::ScoredItem> order;
    bool order_complete = true;
    /// Indices into cells (LM rmin/zero only).
    std::vector<std::int32_t> complete;
    std::vector<std::int32_t> near_complete;
  };
  /// A user's top-depth listing threshold: (rating, item) is listed iff it
  /// ranks at or above (rating desc, item asc) this entry.
  struct Listing {
    double rating = 0.0;
    ItemId item = 0;
  };
  struct Change;
  struct Scratch;

  static Scratch& ScratchFor(std::int32_t num_items);
  /// The index of `item` in group.cells, or -1 when no member rated it.
  static std::int32_t Find(const Group& group, ItemId item);
  /// Rebuilds group.table over group.ids.
  static void Rehash(Group& group);
  /// Appends a newly touched item.
  static void Insert(Group& group, ItemId item, const Cell& cell);
  /// Drops the cell at `index`, moving the last cell into its place.
  static void Erase(Group& group, std::int32_t index);
  int Listed(UserId user, ItemId item, Rating rating) const;
  void AddRating(Cell& cell, Rating rating, int listed) const;
  void RemoveRating(Cell& cell, Rating rating, int listed) const;
  bool NeedsMin(const Cell& cell, int group_size) const;
  void ResolveMin(std::span<const UserId> members, UserId skip, UserId extra,
                  ItemId item, Cell& cell) const;
  double Score(const Cell& cell, int group_size) const {
    return scorer_.ScoreOf({cell.raters, cell.min, cell.sum}, group_size);
  }
  bool BuildGroup(std::vector<UserId> members, Group& group) const;
  /// Rescores every candidate cell and keeps the head of the order.
  void RebuildOrder(Group& group) const;
  /// Recomputes the complete and near-complete sets.
  void DeriveFlipSets(Group& group) const;
  void Collect(const Group& group, UserId out, UserId in, bool flips,
               Scratch& scratch) const;

  const core::FormationProblem& problem_;
  const grouprec::GroupScorer& scorer_;
  data::RatingStore store_;
  int k_ = 1;
  /// Effective union depth, max(candidate_depth, k); 0 for the whole
  /// catalogue.
  int depth_ = 0;
  bool lm_ = true;
  grouprec::MissingRatingPolicy missing_ =
      grouprec::MissingRatingPolicy::kScaleMin;
  /// LM under rmin or zero: scores depend on completeness.
  bool flips_ = false;
  /// AV under rmin: a size change shifts every untouched-by-the-move
  /// score by exactly r_min per member.
  bool av_shift_ = false;
  /// Depth 0, and no item can score below UntouchedScore, the floor:
  /// every case but zero/skip on a scale with negative ratings (LM skip
  /// excepted). The floor tier (every item at it, in id order) is walked
  /// by id, not cached: orders hold only the items above it.
  bool floor_ = false;
  /// floor_ under LM rmin/zero: a pure add drops every item outside the
  /// newcomer's row to the floor (complete items lose completeness).
  bool drop_on_add_ = false;
  /// Length of a group's order head after a rebuild. A trial reads the
  /// head past the items it rescores, so this serves all but the trial
  /// that rescores most of it; Apply rebuilds a head shrunk below
  /// head_min_ and trims one grown past twice head_length_.
  std::size_t head_length_ = 0;
  std::size_t head_min_ = 0;
  bool exact_ = true;
  std::vector<Listing> listings_;  // per user, depth > 0 only
  std::vector<Group> groups_;
};

}  // namespace groupform::exact

#endif  // GROUPFORM_EXACT_MOVE_EVALUATOR_H_
