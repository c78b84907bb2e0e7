#include "exact/move_evaluator.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/logging.h"

namespace groupform::exact {
namespace {

using grouprec::BetterScoredItem;
using grouprec::MissingRatingPolicy;
using grouprec::ScoredItem;

/// Slot marks besides a change's index: unmarked, and a rescored item
/// that sits in the floor tier.
constexpr std::int32_t kUnmarked = -1;
constexpr std::int32_t kFloorMark = -2;

/// Open-addressing table slots besides a cell index.
constexpr std::int32_t kEmptySlot = -1;
constexpr std::int32_t kErasedSlot = -2;

/// Sums of these are exact in double whatever the order (DESIGN.md
/// §19.4): integer multiples of 2^-10 within ±2^20.
bool OnDyadicGrid(double r) {
  const double scaled = r * 1024.0;
  return std::abs(r) <= 1048576.0 && scaled == std::floor(scaled);
}

/// min(-0.0, 0.0) depends on argument order, so a store holding -0.0 is
/// never scored incrementally.
bool IsNegativeZero(double r) { return r == 0.0 && std::signbit(r); }

/// Orders a user's row for its top-depth listing: rating desc, item asc
/// (the union filter's personal order).
bool BetterEntry(const data::RatingEntry& a, const data::RatingEntry& b) {
  if (a.rating != b.rating) return a.rating > b.rating;
  return a.item < b.item;
}

/// BetterScoredItem as a function object, so the standard algorithms
/// inline it instead of calling through a function pointer.
constexpr auto kBetter = [](const ScoredItem& a, const ScoredItem& b) {
  return BetterScoredItem(a, b);
};

/// Fibonacci hashing of an item id onto a table of 2^(32 - shift) slots.
std::uint32_t HashSlot(ItemId item, int shift) {
  return (static_cast<std::uint32_t>(item) * 0x9E3779B1u) >> shift;
}

}  // namespace

/// One item rescored by a move: its cell after the move, and the index of
/// its cell before it (-1 when no member rated it).
struct MoveEvaluator::Change {
  ItemId item = kInvalidItem;
  std::int32_t index = -1;
  Cell cell;
};

/// Per-thread scratch. While a call runs, slot[item] >= 0 marks an item of
/// `changes` (kFloorMark one in the floor tier); between calls every slot
/// is kUnmarked, so a call pays only for the items it marks. The slot
/// array grows once per thread to the largest catalogue seen.
struct MoveEvaluator::Scratch {
  std::vector<std::int32_t> slot;
  std::vector<Change> changes;
  std::vector<ScoredItem> scored;
  grouprec::GroupTopK list;
  // The order beyond a group's head, scored by a trial that reads past it.
  std::vector<ScoredItem> tail;
  // Apply's rebuilt head (swapped in) and its emptied cells.
  std::vector<ScoredItem> order;
  std::vector<std::int32_t> erased;
};

namespace {

/// Clears the marks of every change when a call ends, exceptions included,
/// so no call leaves the thread's slots dirty.
template <typename Scratch>
struct ClearMarks {
  Scratch& scratch;
  ~ClearMarks() {
    for (const auto& change : scratch.changes) {
      scratch.slot[change.item] = kUnmarked;
    }
    scratch.changes.clear();
  }
};

}  // namespace

MoveEvaluator::Scratch& MoveEvaluator::ScratchFor(std::int32_t num_items) {
  thread_local Scratch scratch;
  if (scratch.slot.size() < static_cast<std::size_t>(num_items)) {
    scratch.slot.resize(static_cast<std::size_t>(num_items), kUnmarked);
  }
  return scratch;
}

MoveEvaluator::MoveEvaluator(const core::FormationProblem& problem,
                             const grouprec::GroupScorer& scorer,
                             std::span<const std::vector<UserId>> groups)
    : problem_(problem),
      scorer_(scorer),
      store_(scorer.store()),
      k_(problem.k),
      depth_(problem.candidate_depth == 0
                 ? 0
                 : std::max(problem.candidate_depth, problem.k)),
      lm_(scorer.options().semantics == grouprec::Semantics::kLeastMisery),
      missing_(scorer.options().missing),
      // In size_t: k may be as large as INT_MAX.
      head_length_(4 * static_cast<std::size_t>(k_) + 16),
      head_min_(static_cast<std::size_t>(k_) + 8) {
  const double r_min = store_.scale().min;
  flips_ = lm_ && missing_ != MissingRatingPolicy::kSkipUser;
  av_shift_ = !lm_ && missing_ == MissingRatingPolicy::kScaleMin;
  floor_ = depth_ == 0 && (missing_ == MissingRatingPolicy::kScaleMin ||
                           r_min >= 0.0 ||
                           (lm_ && missing_ == MissingRatingPolicy::kSkipUser));
  drop_on_add_ = floor_ && flips_;
  // The one fallback (DESIGN.md §19.4): AV sums are order-independent only
  // on the dyadic grid, and the bound on users keeps every score below
  // 2^53 ulps of the grid; -0.0 breaks the order-independence of min. The
  // member ratings are checked as they are accumulated below (in scale
  // too: floor_ relies on no score below it).
  exact_ = !IsNegativeZero(r_min) &&
           (lm_ || (OnDyadicGrid(r_min) && store_.num_users() <= (1 << 22)));
  if (!exact_) return;

  if (depth_ > 0) {
    listings_.resize(static_cast<std::size_t>(store_.num_users()));
    std::vector<data::RatingEntry> row;
    for (UserId u = 0; u < store_.num_users(); ++u) {
      row.clear();
      store_.VisitRow(u, [&row](ItemId item, Rating r) {
        row.push_back({item, r});
      });
      Listing& listing = listings_[static_cast<std::size_t>(u)];
      if (std::ssize(row) <= depth_) {
        listing.rating = -std::numeric_limits<double>::infinity();
        continue;
      }
      const auto nth = row.begin() + (depth_ - 1);
      std::nth_element(row.begin(), nth, row.end(), BetterEntry);
      listing = {nth->rating, nth->item};
    }
  }
  groups_.resize(groups.size());
  for (std::size_t g = 0; g < groups.size() && exact_; ++g) {
    exact_ = BuildGroup(groups[g], groups_[g]);
  }
  if (!exact_) groups_.clear();
}

std::int32_t MoveEvaluator::Find(const Group& group, ItemId item) {
  const auto mask = static_cast<std::uint32_t>(group.table.size() - 1);
  for (std::uint32_t h = HashSlot(item, group.table_shift);;
       h = (h + 1) & mask) {
    const std::int32_t index = group.table[h];
    if (index == kEmptySlot) return -1;
    if (index >= 0 && group.ids[static_cast<std::size_t>(index)] == item) {
      return index;
    }
  }
}

void MoveEvaluator::Rehash(Group& group) {
  int bits = 4;
  while ((std::size_t{1} << bits) < 4 * group.ids.size()) ++bits;
  group.table.assign(std::size_t{1} << bits, kEmptySlot);
  group.table_shift = 32 - bits;
  group.table_used = group.ids.size();
  const auto mask = static_cast<std::uint32_t>(group.table.size() - 1);
  for (std::size_t i = 0; i < group.ids.size(); ++i) {
    std::uint32_t h = HashSlot(group.ids[i], group.table_shift);
    while (group.table[h] != kEmptySlot) h = (h + 1) & mask;
    group.table[h] = static_cast<std::int32_t>(i);
  }
}

void MoveEvaluator::Insert(Group& group, ItemId item, const Cell& cell) {
  group.ids.push_back(item);
  group.cells.push_back(cell);
  if (2 * (group.table_used + 1) > group.table.size()) {
    Rehash(group);
    return;
  }
  const auto mask = static_cast<std::uint32_t>(group.table.size() - 1);
  std::uint32_t h = HashSlot(item, group.table_shift);
  while (group.table[h] >= 0) h = (h + 1) & mask;
  if (group.table[h] == kEmptySlot) ++group.table_used;
  group.table[h] = static_cast<std::int32_t>(group.ids.size() - 1);
}

void MoveEvaluator::Erase(Group& group, std::int32_t index) {
  const auto mask = static_cast<std::uint32_t>(group.table.size() - 1);
  const auto slot_of = [&group, mask](ItemId item) {
    std::uint32_t h = HashSlot(item, group.table_shift);
    while (group.table[h] < 0 ||
           group.ids[static_cast<std::size_t>(group.table[h])] != item) {
      h = (h + 1) & mask;
    }
    return h;
  };
  const auto i = static_cast<std::size_t>(index);
  group.table[slot_of(group.ids[i])] = kErasedSlot;
  const std::size_t last = group.ids.size() - 1;
  if (i != last) {
    group.table[slot_of(group.ids[last])] = index;
    group.ids[i] = group.ids[last];
    group.cells[i] = group.cells[last];
  }
  group.ids.pop_back();
  group.cells.pop_back();
}

int MoveEvaluator::Listed(UserId user, ItemId item, Rating rating) const {
  if (depth_ == 0) return 0;
  const Listing& t = listings_[static_cast<std::size_t>(user)];
  return rating > t.rating || (rating == t.rating && item <= t.item) ? 1 : 0;
}

void MoveEvaluator::AddRating(Cell& cell, Rating rating, int listed) const {
  if (lm_) {
    if (cell.min_count == 0 && cell.raters > 0) {
      // Unresolved minimum: every other rater sits strictly above `min`.
      if (rating <= cell.min) {
        cell.min = rating;
        cell.min_count = 1;
      }
    } else if (rating < cell.min) {
      cell.min = rating;
      cell.min_count = 1;
    } else if (rating == cell.min) {
      ++cell.min_count;
    }
  }
  ++cell.raters;
  cell.sum += rating;
  cell.listed += listed;
}

void MoveEvaluator::RemoveRating(Cell& cell, Rating rating,
                                 int listed) const {
  if (--cell.raters == 0) {
    cell = Cell();
    return;
  }
  cell.sum -= rating;
  cell.listed -= listed;
  // The unique holder of the minimum leaves: `min` stays as a strict lower
  // bound of the remaining ratings (min_count 0).
  if (lm_ && cell.min_count > 0 && rating == cell.min) --cell.min_count;
}

bool MoveEvaluator::NeedsMin(const Cell& cell, int group_size) const {
  if (!lm_ || cell.raters == 0 || cell.min_count > 0) return false;
  switch (missing_) {
    case MissingRatingPolicy::kScaleMin:
      return cell.raters == group_size;
    case MissingRatingPolicy::kZero:
      // An incomplete item scores min(min, 0), which a lower bound >= 0
      // already settles.
      return cell.raters == group_size || cell.min < 0.0;
    case MissingRatingPolicy::kSkipUser:
      return true;
  }
  return true;
}

void MoveEvaluator::ResolveMin(std::span<const UserId> members, UserId skip,
                               UserId extra, ItemId item, Cell& cell) const {
  double min = std::numeric_limits<double>::infinity();
  int count = 0;
  const auto visit = [&](UserId u) {
    const auto rating = store_.GetRating(u, item);
    if (!rating.has_value()) return;
    if (*rating < min) {
      min = *rating;
      count = 1;
    } else if (*rating == min) {
      ++count;
    }
  };
  for (const UserId u : members) {
    if (u != skip) visit(u);
  }
  if (extra != kInvalidUser) visit(extra);
  GF_DCHECK(count > 0);
  cell.min = min;
  cell.min_count = count;
}

bool MoveEvaluator::BuildGroup(std::vector<UserId> members,
                               Group& group) const {
  std::sort(members.begin(), members.end());
  group.members = std::move(members);
  Scratch& s = ScratchFor(store_.num_items());
  bool exact = true;
  {
    ClearMarks<Scratch> marks{s};
    for (const UserId u : group.members) {
      store_.VisitRow(u, [&](ItemId item, Rating rating) {
        exact = exact && !IsNegativeZero(rating) &&
                rating >= store_.scale().min &&
                (lm_ || OnDyadicGrid(rating));
        std::int32_t index = s.slot[item];
        if (index < 0) {
          index = static_cast<std::int32_t>(s.changes.size());
          s.changes.push_back({item, -1, Cell()});
          s.slot[item] = index;
        }
        AddRating(s.changes[static_cast<std::size_t>(index)].cell, rating,
                  Listed(u, item, rating));
      });
    }
    group.ids.reserve(s.changes.size());
    group.cells.reserve(s.changes.size());
    for (const Change& c : s.changes) {
      group.ids.push_back(c.item);
      group.cells.push_back(c.cell);
    }
  }
  Rehash(group);
  RebuildOrder(group);
  DeriveFlipSets(group);
  return exact;
}

void MoveEvaluator::RebuildOrder(Group& group) const {
  const int n = static_cast<int>(group.members.size());
  const double floor = scorer_.UntouchedScore(n);
  group.order.clear();
  for (std::size_t i = 0; i < group.cells.size(); ++i) {
    if (depth_ > 0 && group.cells[i].listed == 0) continue;
    const double score = Score(group.cells[i], n);
    if (floor_ && score == floor) continue;  // in the floor tier
    group.order.push_back({group.ids[i], score});
  }
  const std::size_t keep = std::min(head_length_, group.order.size());
  group.order_complete = keep == group.order.size();
  std::partial_sort(group.order.begin(),
                    group.order.begin() + static_cast<std::ptrdiff_t>(keep),
                    group.order.end(), kBetter);
  group.order.resize(keep);
}

void MoveEvaluator::DeriveFlipSets(Group& group) const {
  if (!flips_) return;
  const int n = static_cast<int>(group.members.size());
  group.complete.clear();
  group.near_complete.clear();
  for (std::size_t i = 0; i < group.cells.size(); ++i) {
    const int raters = group.cells[i].raters;
    if (raters == n) group.complete.push_back(static_cast<std::int32_t>(i));
    if (raters == n - 1) {
      group.near_complete.push_back(static_cast<std::int32_t>(i));
    }
  }
}

void MoveEvaluator::Collect(const Group& group, UserId out, UserId in,
                            bool flips, Scratch& s) const {
  if (out != kInvalidUser) {
    store_.VisitRow(out, [&](ItemId item, Rating rating) {
      const std::int32_t index = Find(group, item);
      GF_DCHECK(index >= 0);
      s.changes.push_back(
          {item, index, group.cells[static_cast<std::size_t>(index)]});
      s.slot[item] = static_cast<std::int32_t>(s.changes.size() - 1);
      RemoveRating(s.changes.back().cell, rating, Listed(out, item, rating));
    });
  }
  if (in != kInvalidUser) {
    store_.VisitRow(in, [&](ItemId item, Rating rating) {
      std::int32_t change = s.slot[item];
      if (change < 0) {
        const std::int32_t index = Find(group, item);
        s.changes.push_back(
            {item, index,
             index >= 0 ? group.cells[static_cast<std::size_t>(index)]
                        : Cell()});
        change = static_cast<std::int32_t>(s.changes.size() - 1);
        s.slot[item] = change;
      }
      AddRating(s.changes[static_cast<std::size_t>(change)].cell, rating,
                Listed(in, item, rating));
    });
  }
  // Completeness flips (LM rmin/zero): a pure add makes every complete item
  // the newcomer did not rate incomplete; a pure removal completes every
  // near-complete item the leaver did not rate. Their cells are unchanged.
  if (!flips || !flips_ || (out == kInvalidUser) == (in == kInvalidUser)) {
    return;
  }
  const auto& flipped =
      in != kInvalidUser ? group.complete : group.near_complete;
  for (const std::int32_t index : flipped) {
    const ItemId item = group.ids[static_cast<std::size_t>(index)];
    if (s.slot[item] >= 0) continue;
    s.changes.push_back(
        {item, index, group.cells[static_cast<std::size_t>(index)]});
    s.slot[item] = static_cast<std::int32_t>(s.changes.size() - 1);
  }
}

double MoveEvaluator::Trial(int g, UserId out, UserId in) const {
  GF_CHECK(exact_);
  const Group& group = groups_[static_cast<std::size_t>(g)];
  const int n = static_cast<int>(group.members.size());
  const int moved = n - (out != kInvalidUser) + (in != kInvalidUser);
  if (moved == 0) return 0.0;
  const ItemId num_items = store_.num_items();
  Scratch& s = ScratchFor(num_items);
  ClearMarks<Scratch> marks{s};
  // Under drop_on_add_, a pure add drops every item outside the
  // newcomer's row to the floor: complete items lose their completeness,
  // the rest sat there already. Neither the flips nor the cached order is
  // read then.
  const bool all_floor =
      drop_on_add_ && out == kInvalidUser && in != kInvalidUser;
  Collect(group, out, in, /*flips=*/!all_floor, s);

  // List one: the rescored items' top k. Every other cached item's score
  // is unchanged, or shifted by the same exact r_min multiple under AV
  // rmin, so the cached order is still theirs. Under floor_ a rescored
  // item at the floor joins the floor tier instead.
  const double untouched = scorer_.UntouchedScore(moved);
  s.scored.clear();
  for (Change& c : s.changes) {
    if (depth_ > 0 && c.cell.listed == 0) continue;  // not a candidate
    if (NeedsMin(c.cell, moved)) {
      ResolveMin(group.members, out, in, c.item, c.cell);
    }
    const double score = Score(c.cell, moved);
    if (floor_ && score == untouched) {
      s.slot[c.item] = kFloorMark;
      continue;
    }
    s.scored.push_back({c.item, score});
  }
  const auto kk = static_cast<std::size_t>(k_);
  const std::size_t keep = std::min(kk, s.scored.size());
  std::partial_sort(s.scored.begin(),
                    s.scored.begin() + static_cast<std::ptrdiff_t>(keep),
                    s.scored.end(), kBetter);

  // List three (depth 0): the remaining items at UntouchedScore, in id
  // order, walked only once the other lists reach that score. Under floor_
  // that is the floor tier: every id except the rescored items and the
  // cached ones above the floor (a cell outside the movers' rows scores
  // at the new size as before, or drops under all_floor). Otherwise it is
  // the ids no member of the moved group rated.
  const std::int32_t* const slot = s.slot.data();
  ItemId walk = 0;
  const auto next_rest = [&]() -> ItemId {
    for (; walk < num_items; ++walk) {
      const std::int32_t mark = slot[walk];
      if (mark == kFloorMark) return walk++;
      if (mark != kUnmarked) continue;
      const std::int32_t index = Find(group, walk);
      if (index < 0 ||
          (floor_ &&
           Score(group.cells[static_cast<std::size_t>(index)], moved) ==
               untouched)) {
        return walk++;
      }
    }
    return kInvalidItem;
  };

  // Exact three-way merge under BetterScoredItem: the rescored items, the
  // cached order minus them, and the rest.
  const double shift =
      av_shift_ ? static_cast<double>(moved - n) * store_.scale().min : 0.0;
  std::span<const ScoredItem> order =
      all_floor ? std::span<const ScoredItem>() : group.order;
  bool order_complete = all_floor || group.order_complete;
  double order_shift = shift;
  std::size_t i = 0;
  std::size_t j = 0;
  bool rest_walked = depth_ > 0;  // no untouched candidates at depth > 0
  ItemId rest_head = kInvalidItem;
  s.list.items.clear();
  while (s.list.items.size() < kk) {
    while (j < order.size() && slot[order[j].item] != kUnmarked) ++j;
    if (j == order.size() && !order_complete) {
      // The head ran out: score the rest of the order on the spot. Every
      // unmarked cell is unchanged by the move (its score shifts exactly),
      // and the ones ranking below the head's last entry are the rest.
      const ScoredItem last{group.order.back().item,
                            group.order.back().score + shift};
      s.tail.clear();
      for (std::size_t c = 0; c < group.cells.size(); ++c) {
        const ItemId item = group.ids[c];
        if (slot[item] != kUnmarked ||
            (depth_ > 0 && group.cells[c].listed == 0)) {
          continue;
        }
        const ScoredItem rest{item, Score(group.cells[c], moved)};
        if (floor_ && rest.score == untouched) continue;
        if (BetterScoredItem(last, rest)) s.tail.push_back(rest);
      }
      const std::size_t need =
          std::min(kk - s.list.items.size(), s.tail.size());
      std::partial_sort(s.tail.begin(),
                        s.tail.begin() + static_cast<std::ptrdiff_t>(need),
                        s.tail.end(), kBetter);
      order = std::span<const ScoredItem>(s.tail).first(need);
      order_complete = true;
      order_shift = 0.0;
      j = 0;
      continue;
    }
    const ScoredItem* best = i < keep ? &s.scored[i] : nullptr;
    ScoredItem cached;
    if (j < order.size()) {
      cached = {order[j].item, order_shift == 0.0
                                   ? order[j].score
                                   : order[j].score + order_shift};
      if (best == nullptr || BetterScoredItem(cached, *best)) best = &cached;
    }
    if (!rest_walked && (best == nullptr || best->score <= untouched)) {
      rest_head = next_rest();
      rest_walked = true;
    }
    const ScoredItem rest{rest_head, untouched};
    if (rest_head != kInvalidItem &&
        (best == nullptr || BetterScoredItem(rest, *best))) {
      best = &rest;
    }
    if (best == nullptr) break;
    s.list.items.push_back(*best);
    if (best == &cached) {
      ++j;
    } else if (best == &rest) {
      rest_head = next_rest();
    } else {
      ++i;
    }
  }
  return core::AggregateListSatisfaction(problem_, moved, s.list);
}

void MoveEvaluator::Apply(int g, UserId out, UserId in) {
  if (!exact_) return;
  Group& group = groups_[static_cast<std::size_t>(g)];
  const int n = static_cast<int>(group.members.size());
  Scratch& s = ScratchFor(store_.num_items());
  ClearMarks<Scratch> marks{s};
  Collect(group, out, in, /*flips=*/true, s);
  if (out != kInvalidUser) {
    group.members.erase(
        std::find(group.members.begin(), group.members.end(), out));
  }
  if (in != kInvalidUser) {
    group.members.insert(
        std::lower_bound(group.members.begin(), group.members.end(), in),
        in);
  }
  const int moved = static_cast<int>(group.members.size());

  // Rescore the changed items against the new members. One joins the
  // head when it ranks above the head's old last entry (shifted as in
  // Trial); below it, it joins the unstored rest, which stays below the
  // new head.
  const double shift =
      av_shift_ ? static_cast<double>(moved - n) * store_.scale().min : 0.0;
  const auto shifted = [shift](const ScoredItem& e) {
    return ScoredItem{e.item, shift == 0.0 ? e.score : e.score + shift};
  };
  const bool complete = group.order_complete;
  const ScoredItem last =
      group.order.empty() ? ScoredItem() : shifted(group.order.back());
  const double floor = scorer_.UntouchedScore(moved);
  s.scored.clear();
  for (Change& c : s.changes) {
    if (NeedsMin(c.cell, moved)) {
      ResolveMin(group.members, kInvalidUser, kInvalidUser, c.item, c.cell);
    }
    if (c.cell.raters == 0 || (depth_ > 0 && c.cell.listed == 0)) continue;
    const ScoredItem rescored{c.item, Score(c.cell, moved)};
    if (floor_ && rescored.score == floor) continue;  // in the floor tier
    if (complete || BetterScoredItem(rescored, last)) {
      s.scored.push_back(rescored);
    }
  }
  // Commit the cells: update in place, append the newly touched items,
  // then erase the emptied ones from the highest index down (each erase
  // moves the last cell, which is never a pending one).
  s.erased.clear();
  for (const Change& c : s.changes) {
    const bool touched = c.cell.raters > 0;
    if (c.index >= 0) {
      group.cells[static_cast<std::size_t>(c.index)] = c.cell;
      if (!touched) s.erased.push_back(c.index);
    } else if (touched) {
      Insert(group, c.item, c.cell);
    }
  }
  std::sort(s.erased.begin(), s.erased.end(), std::greater<>());
  for (const std::int32_t index : s.erased) Erase(group, index);
  DeriveFlipSets(group);

  // The head: the unchanged entries shift exactly, merged with the
  // rescored items that joined it.
  std::sort(s.scored.begin(), s.scored.end(), kBetter);
  s.order.clear();
  auto fresh = s.scored.begin();
  for (const ScoredItem& e : group.order) {
    if (s.slot[e.item] >= 0) continue;
    const ScoredItem kept = shifted(e);
    while (fresh != s.scored.end() && BetterScoredItem(*fresh, kept)) {
      s.order.push_back(*fresh++);
    }
    s.order.push_back(kept);
  }
  s.order.insert(s.order.end(), fresh, s.scored.end());
  group.order.swap(s.order);
  if (!complete && group.order.size() < head_min_) {
    RebuildOrder(group);
  } else if (group.order.size() > 2 * head_length_) {
    group.order.resize(head_length_);
    group.order_complete = false;
  }
}

}  // namespace groupform::exact
