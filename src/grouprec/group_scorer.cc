#include "grouprec/group_scorer.h"

#include <algorithm>
#include <cstdint>
#include <iterator>

#include "common/logging.h"

namespace groupform::grouprec {
namespace {

/// Slot states of an item the current call has not accumulated yet.
constexpr std::int32_t kUntouched = -1;
/// A set filter's member that is still untouched.
constexpr std::int32_t kMarked = -2;

/// Per-thread kernel scratch, reused across calls. While a call runs,
/// `slot[item]` is the index of a touched item in the parallel `scored`
/// and `accums`; between calls every slot is kUntouched, so a call pays
/// only for the items it touches. The slot array grows once per thread to
/// the largest catalogue seen.
struct KernelScratch {
  std::vector<std::int32_t> slot;
  std::vector<ScoredItem> scored;
  std::vector<ItemAccum> accums;
  std::vector<ItemId> untouched;
};

/// The ascending union of each member's top-`depth` personal items, where
/// "top" uses the library tie rule (rating desc, item asc).
std::vector<ItemId> UnionCandidates(const data::RatingStore& store,
                                    std::span<const UserId> group,
                                    int depth) {
  GF_CHECK_GE(depth, 1);
  std::vector<ItemId> candidates;
  std::vector<data::RatingEntry> row;
  for (UserId u : group) {
    row.clear();
    store.VisitRow(u, [&row](ItemId item, Rating rating) {
      row.push_back({item, rating});
    });
    const auto keep =
        row.begin() + std::min<std::ptrdiff_t>(depth, std::ssize(row));
    std::partial_sort(row.begin(), keep, row.end(),
                      [](const data::RatingEntry& a,
                         const data::RatingEntry& b) {
                        if (a.rating != b.rating) return a.rating > b.rating;
                        return a.item < b.item;
                      });
    for (auto it = row.begin(); it != keep; ++it) {
      candidates.push_back(it->item);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  return candidates;
}

}  // namespace

GroupScorer::GroupScorer(data::RatingStore store, Options options)
    : store_(store), options_(options) {}

double GroupScorer::ItemScore(std::span<const UserId> group,
                              ItemId item) const {
  GF_DCHECK(!group.empty());
  // Accumulate observed ratings only and let ScoreFromAccum resolve the
  // missing policy — the same arithmetic as TopK, so the two entry points
  // agree bit for bit.
  ItemAccum acc;
  for (UserId u : group) {
    const auto rating = store_.GetRating(u, item);
    if (!rating.has_value()) continue;
    ++acc.raters;
    acc.min = std::min(acc.min, *rating);
    acc.sum += *rating;
  }
  return ScoreOf(acc, static_cast<int>(group.size()));
}

GroupTopK GroupScorer::TopK(std::span<const UserId> group, int k,
                            const CandidateFilter& filter) const {
  using Kind = CandidateFilter::Kind;
  GF_CHECK_GT(k, 0);
  const ItemId num_items = store_.num_items();
  std::vector<ItemId> union_set;
  std::span<const ItemId> set = filter.set;
  if (filter.kind == Kind::kUnion) {
    union_set = UnionCandidates(store_, group, filter.depth);
    set = union_set;
  }
  const bool is_set = filter.kind == Kind::kSet || filter.kind == Kind::kUnion;
  const bool is_range = filter.kind == Kind::kRange;
  const ItemId begin = is_range ? filter.begin : 0;
  const ItemId end = is_range ? filter.end : num_items;
  GF_CHECK(begin >= 0 && end <= num_items);
  for (std::size_t i = 0; i < set.size(); ++i) {
    GF_CHECK(set[i] >= 0 && set[i] < num_items &&
             (i == 0 || set[i - 1] < set[i]));
  }
  const std::int64_t candidates =
      is_set ? static_cast<std::int64_t>(set.size())
             : std::max<std::int64_t>(0, end - begin);
  GroupTopK result;
  if (group.empty() || candidates == 0) return result;

  // Every allocation happens before the first slot is marked, so nothing
  // between marking and the reset below can throw: each call leaves the
  // thread's slots clean.
  thread_local KernelScratch scratch;
  if (scratch.slot.size() < static_cast<std::size_t>(num_items)) {
    scratch.slot.resize(static_cast<std::size_t>(num_items), kUntouched);
  }
  // At most min(rated cells, candidates) items get touched.
  std::size_t cells = 0;
  for (const UserId u : group) {
    cells += static_cast<std::size_t>(store_.NumRatingsOf(u));
  }
  const std::size_t max_touched =
      std::min(cells, static_cast<std::size_t>(candidates));
  const auto kk = static_cast<std::size_t>(k);
  std::vector<ScoredItem>& scored = scratch.scored;
  std::vector<ItemAccum>& accums = scratch.accums;
  std::vector<ItemId>& untouched = scratch.untouched;
  scored.clear();
  accums.clear();
  untouched.clear();
  scored.reserve(max_touched);
  accums.reserve(max_touched);
  untouched.reserve(std::min(kk, static_cast<std::size_t>(candidates)));
  std::int32_t* const slot = scratch.slot.data();
  for (const ItemId item : set) slot[item] = kMarked;

  // Touched items accumulate in member order — per item, the same
  // contributions in the same order as ItemScore — so min and sum are
  // bit-identical to it. An admitted, not yet touched item is kMarked
  // under a set filter and kUntouched otherwise.
  const std::int32_t admitted = is_set ? kMarked : kUntouched;
  const auto accumulate = [slot, &scored, &accums, admitted](ItemId item,
                                                             Rating rating) {
    std::int32_t& index = slot[item];
    if (index < 0) {
      if (index != admitted) return;
      index = static_cast<std::int32_t>(accums.size());
      scored.push_back({item, 0.0});
      accums.emplace_back();
    }
    ItemAccum& acc = accums[static_cast<std::size_t>(index)];
    ++acc.raters;
    acc.min = std::min(acc.min, rating);
    acc.sum += rating;
  };
  for (const UserId u : group) {
    if (is_range) {
      store_.VisitRowRange(u, begin, end, accumulate);
    } else {
      store_.VisitRow(u, accumulate);
    }
  }

  // List one: the top-k of the touched items.
  const int group_size = static_cast<int>(group.size());
  const double r_min = store_.scale().min;
  for (std::size_t t = 0; t < scored.size(); ++t) {
    scored[t].score = ScoreFromAccum(accums[t], group_size, options_.semantics,
                                     options_.missing, r_min);
  }
  const std::size_t keep = std::min(kk, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + keep, scored.end(),
                    BetterScoredItem);

  // List two: every untouched candidate scores the same constant (no
  // member rated it), so its best k are the smallest ids. Both walks stop
  // after k untouched items, i.e. within k + T steps.
  if (is_set) {
    for (std::size_t i = 0; i < set.size() && untouched.size() < kk; ++i) {
      if (slot[set[i]] == kMarked) untouched.push_back(set[i]);
    }
  } else {
    for (ItemId item = begin; item < end && untouched.size() < kk; ++item) {
      if (slot[item] == kUntouched) untouched.push_back(item);
    }
  }
  for (const ScoredItem& s : scored) slot[s.item] = kUntouched;
  for (const ItemId item : set) slot[item] = kUntouched;

  // Exact merge of two lists each sorted under BetterScoredItem: the
  // result is the top min(k, candidates) of their union.
  const double untouched_score = UntouchedScore(group_size);
  const std::size_t out =
      std::min(kk, static_cast<std::size_t>(candidates));
  result.items.reserve(out);
  std::size_t i = 0;
  std::size_t j = 0;
  while (result.items.size() < out) {
    const bool take_touched =
        j == untouched.size() ||
        (i < keep && BetterScoredItem(scored[i],
                                      {untouched[j], untouched_score}));
    result.items.push_back(take_touched
                               ? scored[i++]
                               : ScoredItem{untouched[j++], untouched_score});
  }
  return result;
}

double GroupScorer::UntouchedScore(int group_size) const {
  return ScoreOf(ItemAccum{}, group_size);
}

double GroupScorer::AggregateSatisfaction(const GroupTopK& list,
                                          Aggregation aggregation) {
  if (list.empty()) return 0.0;
  switch (aggregation) {
    case Aggregation::kMax:
      return list.items.front().score;
    case Aggregation::kMin:
      return list.items.back().score;
    case Aggregation::kSum: {
      double sum = 0.0;
      for (const auto& si : list.items) sum += si.score;
      return sum;
    }
  }
  return 0.0;
}

}  // namespace groupform::grouprec
