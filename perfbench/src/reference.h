#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

// The correctness gate. Every generated line is answered by an in-process
// serve::Session before any timing starts; served responses must match
// those bytes exactly, and every include_groups partition in them must be
// a valid partition whose objective equals core::RecomputeObjective.

#include <string>
#include <vector>

#include "common/status.h"
#include "core/formation.h"
#include "serve/instance_cache.h"
#include "serve/protocol.h"
#include "serve/session.h"
#include "workloads.h"

namespace perfbench {

/// The request's problem knobs over a loaded instance — the same mapping
/// serve::Session applies (grouprec token vocabularies, then Validate()).
groupform::common::StatusOr<groupform::core::FormationProblem> BuildProblem(
    const groupform::serve::ProblemSpec& spec,
    const groupform::serve::LoadedInstance& instance);

struct Reference {
  /// expected[c][i]: the response document for connections[c].items[i].
  std::vector<std::vector<std::string>> expected;
  /// One line per failed check of the reference responses themselves
  /// (a non-OK state, an invalid partition, a wrong objective).
  std::vector<std::string> problems;
  int partitions_checked = 0;
};

/// Answers every distinct line of `w` through `session` (on `threads`
/// threads) and validates the answers.
Reference BuildReference(const Workload& w,
                         groupform::serve::Session& session, int threads);

/// Checks one OK response's partition and objective against its request.
/// Returns an empty string when it holds, else what failed.
std::string CheckPartition(groupform::serve::Session& session,
                           const groupform::serve::Request& request,
                           const groupform::serve::Response& response);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
