#ifndef GROUPFORM_EVAL_METRICS_H_
#define GROUPFORM_EVAL_METRICS_H_

#include "core/formation.h"
#include "data/dataset_stats.h"

namespace groupform::eval {

/// Average group satisfaction over the full recommended top-k lists
/// (§7.1.2): sum_x sum_j sc(g_x, i^j) / ell. Unlike the objective, this
/// always sums the per-item group scores of every recommended item,
/// whatever aggregation the formation optimised — the paper uses it to show
/// Min-optimised groupings still satisfy users across the whole list.
/// The list is recomputed with ComputeGroupList rather than read from
/// FormedGroup::recommendation: a solver's list can differ from the
/// group's full-catalogue top-k in its score sum (DESIGN.md §20.3).
double AvgGroupSatisfaction(const core::FormationProblem& problem,
                            const core::FormationResult& result);

/// Five-point summary of the formed group sizes (Table 4).
data::FivePointSummary GroupSizeSummary(const core::FormationResult& result);

/// Mean over users of the user's own mean rating of the items recommended
/// to their group (missing ratings resolved by the problem policy). A
/// direct per-user happiness measure on the rating scale, used by the user
/// study and the examples.
double MeanPerUserSatisfaction(const core::FormationProblem& problem,
                               const core::FormationResult& result);

/// Fraction of users whose group's recommended list equals their personal
/// top-k list as a set (the paper's "fully satisfied" users: everyone in
/// the first ell-1 greedy groups under Min/Sum keys). Personal lists come
/// from core::PersonalTopK: the problem's shared store when set.
double FullySatisfiedFraction(const core::FormationProblem& problem,
                              const core::FormationResult& result);

}  // namespace groupform::eval

#endif  // GROUPFORM_EVAL_METRICS_H_
