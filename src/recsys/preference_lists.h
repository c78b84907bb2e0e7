#ifndef GROUPFORM_RECSYS_PREFERENCE_LISTS_H_
#define GROUPFORM_RECSYS_PREFERENCE_LISTS_H_

#include <cstddef>
#include <span>
#include <vector>

#include "data/rating_matrix.h"
#include "data/rating_store.h"

namespace groupform::recsys {

/// Library-wide preference tie rule: higher rating first, then smaller item
/// id. Every component (per-user lists, group lists, bucket keys) uses this
/// ordering, which is what makes the greedy algorithms and the golden tests
/// deterministic.
inline bool PrefersEntry(const data::RatingEntry& a,
                         const data::RatingEntry& b) {
  if (a.rating != b.rating) return a.rating > b.rating;
  return a.item < b.item;
}

/// The user's preference list L_u (§4.1): all rated items sorted by the tie
/// rule.
std::vector<data::RatingEntry> FullPreferenceList(
    const data::RatingStore& store, UserId user);

/// The number of entries in the user's top-k list: min(k, d_u).
std::size_t TopKLength(const data::RatingStore& store, UserId user, int k);

/// The one personal top-k selection kernel (DESIGN.md §20): writes the
/// user's best min(k, d_u) entries under PrefersEntry into `out`, best
/// first, and returns how many it wrote. `out` must hold at least
/// TopKLength(store, user, k) entries; nothing is allocated. One VisitRow
/// pass keeps a sorted window of k slots (each cell costs one comparison
/// against the window's worst entry once it is full); windows longer than
/// a few dozen slots switch to a bounded heap, so a huge k costs
/// O(d_u log d_u), never O(d_u * k).
std::size_t SelectTopK(const data::RatingStore& store, UserId user, int k,
                       data::RatingEntry* out);

/// The user's top-k list L_u^k. Returns fewer than k entries when the user
/// rated fewer than k items.
std::vector<data::RatingEntry> TopKList(const data::RatingStore& store,
                                        UserId user, int k);

/// Precomputed top-k lists for the whole population, stored contiguously
/// (DESIGN.md §20). Building costs one SelectTopK pass per user; each
/// list then reads in O(1). Serving builds one per request and hands it
/// to the solver and the response metrics through
/// core::FormationProblem::personal_topk. Holds sum_u min(k, d_u)
/// entries — never more than the instance's rated cells, at any k.
class PreferenceListStore {
 public:
  /// An empty store (k = 0, no users), to be assigned a built one;
  /// FormationProblem::Validate() rejects it as it stands.
  PreferenceListStore() = default;
  /// Builds top-`k` lists for every user of the store's population.
  PreferenceListStore(const data::RatingStore& store, int k);

  int k() const { return k_; }
  std::int32_t num_users() const {
    return static_cast<std::int32_t>(offsets_.size()) - 1;
  }
  /// Heap bytes held by the lists and their offsets.
  std::size_t ByteSize() const {
    return entries_.capacity() * sizeof(data::RatingEntry) +
           offsets_.capacity() * sizeof(std::size_t);
  }

  /// The user's top-k list (possibly shorter than k).
  std::span<const data::RatingEntry> TopK(UserId user) const {
    const auto begin = offsets_[static_cast<std::size_t>(user)];
    const auto end = offsets_[static_cast<std::size_t>(user) + 1];
    return {entries_.data() + begin, entries_.data() + end};
  }

 private:
  int k_ = 0;
  std::vector<std::size_t> offsets_ = {0};
  std::vector<data::RatingEntry> entries_;
};

}  // namespace groupform::recsys

#endif  // GROUPFORM_RECSYS_PREFERENCE_LISTS_H_
