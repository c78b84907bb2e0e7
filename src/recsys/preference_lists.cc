#include "recsys/preference_lists.h"

#include <algorithm>

#include "common/logging.h"

namespace groupform::recsys {
namespace {

/// Windows up to this many slots are kept sorted by insertion, which costs
/// one comparison per rejected cell and a short shift per accepted one;
/// every list length the paper uses (k <= 25) stays on this path. A
/// heap-only kernel built the store 1.4-1.7x slower and cost serving
/// about a fifth of its greedy throughput (DESIGN.md §20.1). Longer
/// windows use a bounded heap, whose O(log k) per accepted cell keeps a
/// huge k from costing O(d_u * k).
constexpr std::size_t kInsertionSlots = 32;

}  // namespace

std::vector<data::RatingEntry> FullPreferenceList(
    const data::RatingStore& store, UserId user) {
  std::vector<data::RatingEntry> list;
  list.reserve(static_cast<std::size_t>(store.NumRatingsOf(user)));
  store.VisitRow(user, [&list](ItemId item, Rating rating) {
    list.push_back({item, rating});
  });
  std::sort(list.begin(), list.end(), PrefersEntry);
  return list;
}

std::size_t TopKLength(const data::RatingStore& store, UserId user, int k) {
  GF_CHECK_GT(k, 0);
  return std::min(static_cast<std::size_t>(k),
                  static_cast<std::size_t>(store.NumRatingsOf(user)));
}

std::size_t SelectTopK(const data::RatingStore& store, UserId user, int k,
                       data::RatingEntry* out) {
  const std::size_t slots = TopKLength(store, user, k);
  if (slots == 0) return 0;
  std::size_t size = 0;
  if (slots <= kInsertionSlots) {
    store.VisitRow(user, [&](ItemId item, Rating rating) {
      const data::RatingEntry entry{item, rating};
      if (size == slots) {
        if (!PrefersEntry(entry, out[slots - 1])) return;
        --size;  // the window's worst entry falls out
      }
      // PrefersEntry is a strict total order within a row (items are
      // unique), so the window is exactly a full sort's prefix.
      std::size_t pos = size;
      for (; pos > 0 && PrefersEntry(entry, out[pos - 1]); --pos) {
        out[pos] = out[pos - 1];
      }
      out[pos] = entry;
      ++size;
    });
    return size;
  }
  // Heap ordered by PrefersEntry: its front is the worst entry kept.
  store.VisitRow(user, [&](ItemId item, Rating rating) {
    const data::RatingEntry entry{item, rating};
    if (size < slots) {
      out[size++] = entry;
      if (size == slots) std::make_heap(out, out + slots, PrefersEntry);
      return;
    }
    if (!PrefersEntry(entry, out[0])) return;
    std::pop_heap(out, out + slots, PrefersEntry);
    out[slots - 1] = entry;
    std::push_heap(out, out + slots, PrefersEntry);
  });
  std::sort_heap(out, out + slots, PrefersEntry);
  return slots;
}

std::vector<data::RatingEntry> TopKList(const data::RatingStore& store,
                                        UserId user, int k) {
  std::vector<data::RatingEntry> list(TopKLength(store, user, k));
  SelectTopK(store, user, k, list.data());
  return list;
}

PreferenceListStore::PreferenceListStore(const data::RatingStore& store,
                                         int k)
    : k_(k) {
  GF_CHECK_GT(k, 0);
  // Offsets first, from the row lengths alone: the lists take exactly
  // sum_u min(k, d_u) entries, whatever k is.
  const auto n = static_cast<std::size_t>(store.num_users());
  offsets_.resize(n + 1);
  for (UserId u = 0; u < store.num_users(); ++u) {
    const auto i = static_cast<std::size_t>(u);
    offsets_[i + 1] = offsets_[i] + TopKLength(store, u, k);
  }
  entries_.resize(offsets_[n]);
  for (UserId u = 0; u < store.num_users(); ++u) {
    SelectTopK(store, u, k,
               entries_.data() + offsets_[static_cast<std::size_t>(u)]);
  }
}

}  // namespace groupform::recsys
