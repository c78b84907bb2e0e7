// Per-user preference lists, the library-wide tie rule, and the one
// personal top-k selection kernel (DESIGN.md §20) against a full sort.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/random.h"
#include "data/compact_matrix.h"
#include "data/paper_examples.h"
#include "data/rating_matrix.h"
#include "data/rating_store.h"
#include "recsys/preference_lists.h"

namespace groupform {
namespace {

TEST(TopKList, SortsByRatingThenItemId) {
  const auto matrix = data::PaperExample1();
  // u5 (index 4): ratings (3, 1, 1). Top-3: i1(3), then the tie between
  // i2 and i3 breaks by ascending item id.
  const auto list = recsys::TopKList(matrix, 4, 3);
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].item, 0);
  EXPECT_DOUBLE_EQ(list[0].rating, 3.0);
  EXPECT_EQ(list[1].item, 1);
  EXPECT_EQ(list[2].item, 2);
}

TEST(TopKList, TruncatesAtKAndAtProfileSize) {
  const auto matrix = data::PaperExample1();
  EXPECT_EQ(recsys::TopKList(matrix, 0, 2).size(), 2u);
  EXPECT_EQ(recsys::TopKList(matrix, 0, 99).size(), 3u);
}

TEST(TopKList, PaperExampleSequences) {
  const auto matrix = data::PaperExample1();
  // Paper §4.1: L_{u2} = <i3:5, i2:3, i1:2>.
  const auto list = recsys::FullPreferenceList(matrix, 1);
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].item, 2);
  EXPECT_DOUBLE_EQ(list[0].rating, 5.0);
  EXPECT_EQ(list[1].item, 1);
  EXPECT_DOUBLE_EQ(list[1].rating, 3.0);
  EXPECT_EQ(list[2].item, 0);
  EXPECT_DOUBLE_EQ(list[2].rating, 2.0);
}

TEST(PreferenceListStore, MatchesOnTheFlyLists) {
  const auto matrix = data::PaperExample2();
  const recsys::PreferenceListStore store(matrix, 2);
  ASSERT_EQ(store.num_users(), matrix.num_users());
  for (UserId u = 0; u < matrix.num_users(); ++u) {
    const auto expected = recsys::TopKList(matrix, u, 2);
    const auto actual = store.TopK(u);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t j = 0; j < expected.size(); ++j) {
      EXPECT_EQ(actual[j].item, expected[j].item);
      EXPECT_DOUBLE_EQ(actual[j].rating, expected[j].rating);
    }
  }
}

TEST(PreferenceListStore, HandlesUsersWithFewRatings) {
  data::RatingMatrixBuilder builder(2, 5, data::RatingScale{1.0, 5.0});
  ASSERT_TRUE(builder.AddRating(0, 3, 4.0).ok());
  // user 1 rates nothing.
  const auto matrix = std::move(builder).Build();
  const recsys::PreferenceListStore store(matrix, 3);
  EXPECT_EQ(store.TopK(0).size(), 1u);
  EXPECT_TRUE(store.TopK(1).empty());
}

/// Rows of every shape the kernel must handle: empty rows, rows shorter
/// than any k, and rows long enough (up to 120 cells) to take both the
/// sorted-window and the bounded-heap paths. Integer ratings on 1..5, so
/// most rows are full of ties.
data::RatingMatrix KernelMatrix(std::uint64_t seed) {
  common::Rng rng(seed);
  constexpr std::int32_t kUsers = 24;
  constexpr std::int32_t kItems = 150;
  data::RatingMatrixBuilder builder(kUsers, kItems,
                                    data::RatingScale{1.0, 5.0});
  for (UserId u = 0; u < kUsers; ++u) {
    if (u % 6 == 0) continue;  // empty row
    const auto length = u % 6 == 1 ? rng.UniformInt(1, 3)
                                   : rng.UniformInt(4, 120);
    std::vector<ItemId> items(kItems);
    for (ItemId i = 0; i < kItems; ++i) items[static_cast<std::size_t>(i)] = i;
    rng.Shuffle(items);
    for (std::int64_t j = 0; j < length; ++j) {
      EXPECT_TRUE(builder
                      .AddRating(u, items[static_cast<std::size_t>(j)],
                                 static_cast<double>(rng.UniformInt(1, 5)))
                      .ok());
    }
  }
  return std::move(builder).Build();
}

/// The reference: the whole row, fully sorted under PrefersEntry,
/// truncated to k.
std::vector<data::RatingEntry> SortedPrefix(const data::RatingStore& store,
                                            UserId user, int k) {
  std::vector<data::RatingEntry> row;
  store.VisitRow(user, [&row](ItemId item, Rating rating) {
    row.push_back({item, rating});
  });
  std::sort(row.begin(), row.end(), recsys::PrefersEntry);
  row.resize(std::min(row.size(), static_cast<std::size_t>(k)));
  return row;
}

void ExpectSameList(std::span<const data::RatingEntry> actual,
                    const std::vector<data::RatingEntry>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t j = 0; j < expected.size(); ++j) {
    EXPECT_EQ(actual[j].item, expected[j].item) << "position " << j;
    EXPECT_EQ(actual[j].rating, expected[j].rating) << "position " << j;
  }
}

TEST(SelectTopK, EqualsAFullSortOnEveryRowShape) {
  constexpr int kIntMax = std::numeric_limits<int>::max();
  for (const std::uint64_t seed : {3u, 17u, 91u}) {
    const auto dense = KernelMatrix(seed);
    const auto compact = data::CompactRatingMatrix::FromMatrix(dense);
    for (const data::RatingStore store :
         {data::RatingStore(dense), data::RatingStore(compact)}) {
      // 1 and 5 (paper lengths), 32/33 (either side of the window/heap
      // switch), 121 (longer than the longest row), INT_MAX.
      for (const int k : {1, 5, 32, 33, 121, kIntMax}) {
        std::vector<data::RatingEntry> out;
        for (UserId u = 0; u < store.num_users(); ++u) {
          SCOPED_TRACE(testing::Message() << "seed " << seed << " k " << k
                                          << " user " << u << " dense "
                                          << store.is_dense());
          const auto expected = SortedPrefix(store, u, k);
          EXPECT_EQ(recsys::TopKLength(store, u, k), expected.size());
          out.assign(expected.size(), data::RatingEntry{-1, -1.0});
          EXPECT_EQ(recsys::SelectTopK(store, u, k, out.data()),
                    expected.size());
          ExpectSameList(out, expected);
          ExpectSameList(recsys::TopKList(store, u, k), expected);
        }
      }
    }
  }
}

TEST(PreferenceListStore, IsSizedByRowsNotByK) {
  const auto matrix = KernelMatrix(5);
  const recsys::PreferenceListStore huge(matrix,
                                         std::numeric_limits<int>::max());
  const recsys::PreferenceListStore sized(matrix, matrix.num_items());
  ASSERT_EQ(huge.num_users(), matrix.num_users());
  for (UserId u = 0; u < matrix.num_users(); ++u) {
    // k = INT_MAX keeps every rated item, exactly as k = |I| does.
    const auto expected = recsys::TopKList(matrix, u, matrix.num_items());
    ExpectSameList(huge.TopK(u), expected);
    ExpectSameList(sized.TopK(u), expected);
  }
  // The lists hold sum_u min(k, d_u) entries: every rated cell, no more.
  EXPECT_LE(huge.ByteSize(),
            static_cast<std::size_t>(matrix.num_ratings()) *
                    sizeof(data::RatingEntry) +
                (static_cast<std::size_t>(matrix.num_users()) + 1) *
                    sizeof(std::size_t));
}

}  // namespace
}  // namespace groupform
