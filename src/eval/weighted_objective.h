#ifndef GROUPFORM_EVAL_WEIGHTED_OBJECTIVE_H_
#define GROUPFORM_EVAL_WEIGHTED_OBJECTIVE_H_

#include "core/formation.h"
#include "grouprec/weighted.h"

namespace groupform::eval {

/// The §6 extensions as evaluation measures. The paper notes that neither
/// extension changes the formation algorithms ("we only need to consider
/// the weights when the overall objective function value is calculated"),
/// so they are implemented as re-scorers of a finished FormationResult.

/// Item-list-level weighting: Obj_w = sum_groups sum_j w_j * sc(g, i^j),
/// with w_j from the chosen positional scheme (1/(j+1) or 1/log2(j+2)).
/// With kUniform this equals the plain Sum-aggregation objective.
double WeightedSumObjective(const core::FormationProblem& problem,
                            const core::FormationResult& result,
                            grouprec::PositionWeighting scheme);

/// User-level weighting: each member's satisfaction with their group's
/// list is their NDCG@k against their own ideal list; group satisfaction
/// combines member NDCGs under the problem's semantics (LM = min,
/// AV = sum); the objective sums over groups. A fully satisfied group
/// scores 1 (LM) or |g| (AV).
double NdcgObjective(const core::FormationProblem& problem,
                     const core::FormationResult& result);

/// Mean NDCG@k over all users — a per-user fairness view of the same
/// measure (1.0 = everyone got their personal ideal list). Ideal lists
/// come from core::PersonalTopK: the problem's shared store when set.
double MeanUserNdcg(const core::FormationProblem& problem,
                    const core::FormationResult& result);

}  // namespace groupform::eval

#endif  // GROUPFORM_EVAL_WEIGHTED_OBJECTIVE_H_
