// SimulatedAnnealingSolver: seed domination, validity, determinism, and
// closeness to the optimum on small instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <vector>

#include "common/random.h"
#include "core/greedy.h"
#include "data/synthetic.h"
#include "exact/simulated_annealing.h"
#include "exact/subset_dp.h"
#include "grouprec/semantics.h"

namespace groupform {
namespace {

using core::FormationProblem;
using grouprec::Aggregation;
using grouprec::Semantics;

FormationProblem Problem(const data::RatingMatrix& matrix,
                         Semantics semantics, Aggregation aggregation, int k,
                         int ell) {
  FormationProblem problem;
  problem.matrix = &matrix;
  problem.semantics = semantics;
  problem.aggregation = aggregation;
  problem.k = k;
  problem.max_groups = ell;
  return problem;
}

/// The annealing loop as it stood before incremental move evaluation
/// (DESIGN.md §19), kept verbatim on the reference kernel: every proposal
/// rescores both groups through core::ComputeGroupList.
double Evaluate(const FormationProblem& problem,
                const grouprec::GroupScorer& scorer,
                const std::vector<UserId>& members) {
  if (members.empty()) return 0.0;
  const auto list = core::ComputeGroupList(problem, scorer, members);
  return core::AggregateListSatisfaction(
      problem, static_cast<int>(members.size()), list);
}

core::FormationResult ReferenceAnneal(
    const FormationProblem& problem_,
    const exact::SimulatedAnnealingSolver::Options& options_) {
  const auto started = std::chrono::steady_clock::now();
  const int n = problem_.Store().num_users();
  const int ell = problem_.max_groups;
  const grouprec::GroupScorer scorer = problem_.MakeScorer();
  common::Rng rng(options_.seed);

  // ---- Start state ----
  std::vector<std::vector<UserId>> groups(static_cast<std::size_t>(ell));
  if (options_.init_with_greedy) {
    auto seed_result = *core::RunGreedy(problem_);
    for (std::size_t g = 0; g < seed_result.groups.size(); ++g) {
      groups[g] = std::move(seed_result.groups[g].members);
    }
  } else {
    std::vector<UserId> order(static_cast<std::size_t>(n));
    for (int u = 0; u < n; ++u) order[static_cast<std::size_t>(u)] = u;
    rng.Shuffle(order);
    for (std::size_t i = 0; i < order.size(); ++i) {
      groups[i % static_cast<std::size_t>(ell)].push_back(order[i]);
    }
  }
  std::vector<double> scores(groups.size());
  std::vector<int> group_of(static_cast<std::size_t>(n), 0);
  double objective = 0.0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    scores[g] = Evaluate(problem_, scorer, groups[g]);
    objective += scores[g];
    for (UserId u : groups[g]) {
      group_of[static_cast<std::size_t>(u)] = static_cast<int>(g);
    }
  }

  // Best-ever snapshot.
  auto best_groups = groups;
  double best_objective = objective;

  double temperature =
      std::max(objective, 1.0) * options_.initial_temperature_fraction;
  const auto accept = [&](double delta) {
    if (delta >= 0.0) return true;
    if (temperature <= 1e-12) return false;
    return rng.NextDouble() < std::exp(delta / temperature);
  };

  const auto remove_from = [](std::vector<UserId>& members, UserId u) {
    members.erase(std::find(members.begin(), members.end(), u));
  };
  const auto insert_sorted = [](std::vector<UserId>& members, UserId u) {
    members.insert(
        std::lower_bound(members.begin(), members.end(), u), u);
  };

  bool partial = false;
  for (int step = 0; step < options_.iterations; ++step) {
    // Anytime contract (DESIGN.md §17.4): an expired budget returns the
    // best-ever snapshot as a partial result instead of failing.
    if (options_.deadline_ms >= 0 &&
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - started)
                .count() >= options_.deadline_ms) {
      partial = true;
      break;
    }
    if (step > 0 && step % options_.cooling_interval == 0) {
      temperature *= options_.cooling;
    }
    const UserId u = static_cast<UserId>(
        rng.NextUint64(static_cast<std::uint64_t>(n)));
    const int from = group_of[static_cast<std::size_t>(u)];
    const bool try_swap =
        ell > 1 && rng.NextDouble() < options_.swap_fraction;
    int to = from;
    while (to == from && ell > 1) {
      to = static_cast<int>(rng.NextUint64(
          static_cast<std::uint64_t>(ell)));
    }
    if (to == from) continue;  // ell == 1: nothing to do

    auto& src = groups[static_cast<std::size_t>(from)];
    auto& dst = groups[static_cast<std::size_t>(to)];
    if (try_swap && !dst.empty()) {
      const UserId v =
          dst[static_cast<std::size_t>(rng.NextUint64(dst.size()))];
      std::vector<UserId> new_src = src;
      remove_from(new_src, u);
      insert_sorted(new_src, v);
      std::vector<UserId> new_dst = dst;
      remove_from(new_dst, v);
      insert_sorted(new_dst, u);
      const double src_sat = Evaluate(problem_, scorer, new_src);
      const double dst_sat = Evaluate(problem_, scorer, new_dst);
      const double delta =
          (src_sat + dst_sat) -
          (scores[static_cast<std::size_t>(from)] +
           scores[static_cast<std::size_t>(to)]);
      if (accept(delta)) {
        src = std::move(new_src);
        dst = std::move(new_dst);
        scores[static_cast<std::size_t>(from)] = src_sat;
        scores[static_cast<std::size_t>(to)] = dst_sat;
        objective += delta;
        group_of[static_cast<std::size_t>(u)] = to;
        group_of[static_cast<std::size_t>(v)] = from;
      }
    } else {
      if (src.size() == 1 && dst.empty()) continue;  // no-op shuffle
      std::vector<UserId> new_src = src;
      remove_from(new_src, u);
      std::vector<UserId> new_dst = dst;
      insert_sorted(new_dst, u);
      const double src_sat = Evaluate(problem_, scorer, new_src);
      const double dst_sat = Evaluate(problem_, scorer, new_dst);
      const double delta =
          (src_sat + dst_sat) -
          (scores[static_cast<std::size_t>(from)] +
           scores[static_cast<std::size_t>(to)]);
      if (accept(delta)) {
        src = std::move(new_src);
        dst = std::move(new_dst);
        scores[static_cast<std::size_t>(from)] = src_sat;
        scores[static_cast<std::size_t>(to)] = dst_sat;
        objective += delta;
        group_of[static_cast<std::size_t>(u)] = to;
      }
    }
    if (objective > best_objective) {
      best_objective = objective;
      best_groups = groups;
    }
  }

  // ---- Package the best state ----
  core::FormationResult result;
  result.algorithm = "SA";
  result.partial = partial;
  for (const auto& members : best_groups) {
    if (members.empty()) continue;
    core::FormedGroup group;
    group.members = members;
    group.recommendation =
        core::ComputeGroupList(problem_, scorer, group.members);
    group.satisfaction = core::AggregateListSatisfaction(
        problem_, static_cast<int>(group.members.size()),
        group.recommendation);
    result.objective += group.satisfaction;
    result.groups.push_back(std::move(group));
  }
  return result;
}

TEST(SimulatedAnnealing, NeverBelowGreedySeed) {
  const auto matrix = data::GenerateClusteredDense(60, 20, 6, 81);
  for (const auto semantics :
       {Semantics::kLeastMisery, Semantics::kAggregateVoting}) {
    const auto problem =
        Problem(matrix, semantics, Aggregation::kMin, 3, 6);
    const auto greedy = core::RunGreedy(problem);
    ASSERT_TRUE(greedy.ok());
    exact::SimulatedAnnealingSolver::Options options;
    options.iterations = 4000;
    const auto sa =
        exact::SimulatedAnnealingSolver(problem, options).Run();
    ASSERT_TRUE(sa.ok()) << sa.status();
    EXPECT_GE(sa->objective, greedy->objective - 1e-9)
        << problem.ToString();
    EXPECT_TRUE(core::ValidatePartition(problem, *sa).ok());
  }
}

TEST(SimulatedAnnealing, ApproachesTheOptimumOnSmallInstances) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto matrix = data::GenerateUniformDense(
        10, 5, data::RatingScale{1.0, 5.0}, seed);
    const auto problem = Problem(matrix, Semantics::kAggregateVoting,
                                 Aggregation::kMin, 2, 3);
    const auto opt = exact::SubsetDpSolver(problem).Run();
    ASSERT_TRUE(opt.ok());
    exact::SimulatedAnnealingSolver::Options options;
    options.iterations = 8000;
    const auto sa =
        exact::SimulatedAnnealingSolver(problem, options).Run();
    ASSERT_TRUE(sa.ok());
    EXPECT_LE(sa->objective, opt->objective + 1e-9);
    EXPECT_GE(sa->objective, 0.9 * opt->objective) << "seed " << seed;
  }
}

TEST(SimulatedAnnealing, DeterministicForFixedSeed) {
  const auto matrix = data::GenerateClusteredDense(40, 15, 4, 83);
  const auto problem =
      Problem(matrix, Semantics::kLeastMisery, Aggregation::kSum, 3, 4);
  exact::SimulatedAnnealingSolver::Options options;
  options.iterations = 2000;
  const auto a = exact::SimulatedAnnealingSolver(problem, options).Run();
  const auto b = exact::SimulatedAnnealingSolver(problem, options).Run();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->objective, b->objective);
}

TEST(SimulatedAnnealing, RandomInitStillProducesValidPartitions) {
  const auto matrix = data::GenerateClusteredDense(50, 15, 5, 85);
  const auto problem = Problem(matrix, Semantics::kAggregateVoting,
                               Aggregation::kSum, 2, 5);
  exact::SimulatedAnnealingSolver::Options options;
  options.init_with_greedy = false;
  options.iterations = 3000;
  const auto sa = exact::SimulatedAnnealingSolver(problem, options).Run();
  ASSERT_TRUE(sa.ok());
  EXPECT_TRUE(core::ValidatePartition(problem, *sa).ok());
}

TEST(SimulatedAnnealing, SingleGroupDegeneratesGracefully) {
  const auto matrix = data::GenerateClusteredDense(20, 10, 2, 87);
  const auto problem =
      Problem(matrix, Semantics::kLeastMisery, Aggregation::kMin, 2, 1);
  exact::SimulatedAnnealingSolver::Options options;
  options.iterations = 500;
  const auto sa = exact::SimulatedAnnealingSolver(problem, options).Run();
  ASSERT_TRUE(sa.ok());
  EXPECT_EQ(sa->num_groups(), 1);
  EXPECT_TRUE(core::ValidatePartition(problem, *sa).ok());
}

TEST(SimulatedAnnealing, MatchesTheReferenceLoopExactly) {
  // On-grid instances take the incremental evaluator, the continuous one
  // under AV takes the reference kernel; random starts leave the member
  // lists unsorted. Every case must reproduce the reference partition,
  // satisfactions and objective bit for bit, also at k = INT_MAX (a valid
  // request: lists hold every candidate and nothing may be sized by k).
  data::SyntheticConfig sparse = data::YahooMusicLikeConfig(90, 60, 5);
  const auto latent = data::GenerateLatentFactor(sparse);
  const auto clustered = data::GenerateClusteredDense(48, 20, 4, 91);
  data::ScaleConfig continuous_config;
  continuous_config.num_users = 60;
  continuous_config.num_items = 40;
  continuous_config.integer_ratings = false;
  continuous_config.seed = 93;
  const auto continuous = data::GenerateScaleSparse(continuous_config);
  int cases = 0;
  for (const data::RatingMatrix* matrix : {&latent, &clustered, &continuous}) {
    for (const auto semantics :
         {Semantics::kLeastMisery, Semantics::kAggregateVoting}) {
      for (const auto aggregation :
           {Aggregation::kMin, Aggregation::kSum, Aggregation::kMax}) {
        for (const bool greedy_start : {true, false}) {
          const int k =
              cases % 4 == 3 ? std::numeric_limits<int>::max() : 3;
          auto problem = Problem(*matrix, semantics, aggregation, k, 6);
          problem.candidate_depth = cases % 3 == 2 ? 4 : 0;
          exact::SimulatedAnnealingSolver::Options options;
          options.iterations = 1500;
          options.init_with_greedy = greedy_start;
          options.seed = 300 + static_cast<std::uint64_t>(cases++);
          const auto expected = ReferenceAnneal(problem, options);
          const auto actual =
              exact::SimulatedAnnealingSolver(problem, options).Run();
          ASSERT_TRUE(actual.ok()) << actual.status();
          SCOPED_TRACE(problem.ToString());
          EXPECT_EQ(actual->objective, expected.objective);  // bitwise
          ASSERT_EQ(actual->groups.size(), expected.groups.size());
          for (std::size_t g = 0; g < expected.groups.size(); ++g) {
            EXPECT_EQ(actual->groups[g].members, expected.groups[g].members);
            EXPECT_EQ(actual->groups[g].satisfaction,
                      expected.groups[g].satisfaction);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace groupform
