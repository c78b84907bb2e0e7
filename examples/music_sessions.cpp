// Music listening rooms (FlyTrap-style, paper §1): listeners rated only a
// few songs each, and rooms are formed on that sparse explicit feedback
// directly. The paper assumes a complete (predicted) rating matrix; here
// a song a listener never rated scores the scale minimum for that
// listener (the default missing-rating policy, DESIGN.md §3), which least
// misery then treats like a hated track. This example exercises sparse
// data -> group formation -> per-room playlists.
//
// Run: ./build/examples/music_sessions
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <vector>

#include "core/formation.h"
#include "core/greedy.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "grouprec/semantics.h"

int main() {
  using namespace groupform;

  // 2000 listeners, 300 songs, each listener rated only 15-40 songs.
  auto config = data::YahooMusicLikeConfig(2000, 300, /*seed=*/11);
  config.min_ratings_per_user = 15;
  config.max_ratings_per_user = 40;
  const auto sparse = data::GenerateLatentFactor(config);

  std::printf("%lld ratings from %d listeners over %d songs (density %.3f)\n",
              static_cast<long long>(sparse.num_ratings()),
              sparse.num_users(), sparse.num_items(), sparse.Density());

  // Form 20 listening rooms, playlist of 8 songs each, least misery so no
  // room member suffers through a hated (or unheard) track.
  core::FormationProblem problem;
  problem.matrix = &sparse;
  problem.semantics = grouprec::Semantics::kLeastMisery;
  problem.aggregation = grouprec::Aggregation::kMin;
  problem.k = 8;
  problem.max_groups = 20;
  problem.candidate_depth = 16;

  const auto rooms = core::RunGreedy(problem);
  if (!rooms.ok()) {
    std::fprintf(stderr, "%s\n", rooms.status().ToString().c_str());
    return 1;
  }
  std::printf("\nformed %d rooms, objective %.1f\n", rooms->num_groups(),
              rooms->objective);
  std::printf("mean listener rating of their room's playlist: %.2f / 5\n",
              eval::MeanPerUserSatisfaction(problem, *rooms));

  // Print the three largest rooms' playlists.
  std::vector<std::size_t> order(rooms->groups.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return rooms->groups[a].members.size() >
                            rooms->groups[b].members.size();
                   });
  for (std::size_t printed = 0; printed < 3 && printed < order.size();
       ++printed) {
    const auto& room = rooms->groups[order[printed]];
    std::printf("room %zu (%zu listeners): ", order[printed],
                room.members.size());
    for (const auto& si : room.recommendation.items) {
      std::printf("song-%d ", si.item);
    }
    std::printf("\n");
  }
  return 0;
}
