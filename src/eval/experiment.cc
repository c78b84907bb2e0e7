#include "eval/experiment.h"

#include <algorithm>
#include <utility>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/solver_registry.h"
#include "solvers/builtin.h"

namespace groupform::eval {

namespace {

/// The paper's solver families in its column order (contribution,
/// baselines, optimal references), each with the label its column prints.
struct PaperSolver {
  const char* name;
  const char* label;
};
constexpr PaperSolver kPaperSolvers[] = {
    {"greedy", "GRD"},       {"baseline", "Baseline"},
    {"veckmeans", "VecKMeans"}, {"localsearch", "OPT*"},
    {"sa", "SA"},            {"exact", "OPT"},
    {"bnb", "BNB"},          {"brute", "Brute"},
};

const PaperSolver* FindPaperSolver(const std::string& name) {
  for (const auto& solver : kPaperSolvers) {
    if (name == solver.name) return &solver;
  }
  return nullptr;
}

}  // namespace

std::string SolverDisplayLabel(const std::string& registry_name) {
  const PaperSolver* solver = FindPaperSolver(registry_name);
  return solver == nullptr ? registry_name : solver->label;
}

std::vector<std::string> OrderSolversForDisplay(
    std::vector<std::string> names) {
  // The paper's column order, then everything the paper never heard of
  // alphabetically.
  std::vector<std::string> ordered;
  ordered.reserve(names.size());
  for (const auto& known : kPaperSolvers) {
    for (const auto& name : names) {
      if (name == known.name) ordered.push_back(name);
    }
  }
  std::vector<std::string> rest;
  for (const auto& name : names) {
    if (FindPaperSolver(name) == nullptr) rest.push_back(name);
  }
  std::sort(rest.begin(), rest.end());
  ordered.insert(ordered.end(), rest.begin(), rest.end());
  return ordered;
}

common::StatusOr<RunOutcome> RunAlgorithmByName(
    const std::string& name, const core::FormationProblem& problem,
    std::uint64_t seed, const core::SolverOptions& options) {
  solvers::EnsureBuiltinSolversRegistered();
  common::Stopwatch stopwatch;
  GF_ASSIGN_OR_RETURN(
      auto solver,
      core::SolverRegistry::Global().Create(name, problem, options));
  GF_ASSIGN_OR_RETURN(auto result, solver->Solve(seed));
  RunOutcome outcome;
  outcome.result = std::move(result);
  outcome.seconds = stopwatch.ElapsedSeconds();
  return outcome;
}

common::StatusOr<RepeatedOutcome> RunRepeated(
    const std::string& name, const core::FormationProblem& problem,
    int repetitions, std::uint64_t seed_base,
    const core::SolverOptions& options) {
  // Each repetition's seed depends only on its index, and each writes its
  // own slot; the serial reduction below then reads the slots in index
  // order — the same floating-point operation order as the old serial
  // loop, which is what makes the mean byte-identical at any thread count.
  std::vector<common::StatusOr<RunOutcome>> outcomes(
      static_cast<std::size_t>(repetitions < 0 ? 0 : repetitions),
      common::Status::Internal("repetition not run"));
  common::ThreadPool::Shared().ParallelFor(
      repetitions, [&](std::int64_t rep) {
        outcomes[static_cast<std::size_t>(rep)] = RunAlgorithmByName(
            name, problem,
            seed_base + static_cast<std::uint64_t>(rep) * 7919, options);
      });
  RepeatedOutcome out;
  for (auto& outcome : outcomes) {
    if (!outcome.ok()) return outcome.status();
    out.mean_objective += outcome->result.objective;
    out.mean_seconds += outcome->seconds;
  }
  if (repetitions > 0) {
    out.mean_objective /= repetitions;
    out.mean_seconds /= repetitions;
    out.last_result = std::move(outcomes.back()->result);
  }
  return out;
}

}  // namespace groupform::eval
