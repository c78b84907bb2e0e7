#include "reference.h"

#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>

#include "common.h"
#include "grouprec/semantics.h"

namespace perfbench {
namespace {

namespace common = groupform::common;
namespace core = groupform::core;
namespace grouprec = groupform::grouprec;
namespace serve = groupform::serve;

std::string Describe(const std::string& id, const std::string& what) {
  return "request " + id + ": " + what;
}

/// Validates one element's response (state OK, and the partition when
/// the request asked for groups).
void CheckResponse(serve::Session& session, const serve::Request& request,
                   const std::string& doc, Reference* ref, std::mutex* mu) {
  const auto response = serve::ParseResponseLine(doc);
  std::string problem;
  if (!response.ok()) {
    problem = "unparseable response: " + response.status().ToString();
  } else if (response->state != groupform::eval::SweepCellState::kOk) {
    problem = "state is not OK: " + doc.substr(0, 300);
  } else if (request.include_groups) {
    problem = CheckPartition(session, request, *response);
  }
  std::lock_guard<std::mutex> lock(*mu);
  if (!problem.empty()) ref->problems.push_back(Describe(request.id, problem));
  if (request.include_groups) ++ref->partitions_checked;
}

}  // namespace

common::StatusOr<core::FormationProblem> BuildProblem(
    const serve::ProblemSpec& spec, const serve::LoadedInstance& instance) {
  core::FormationProblem problem;
  problem.matrix = instance.dense.get();
  problem.compact = instance.compact.get();
  GF_ASSIGN_OR_RETURN(problem.semantics,
                      grouprec::SemanticsFromToken(spec.semantics));
  GF_ASSIGN_OR_RETURN(problem.aggregation,
                      grouprec::AggregationFromToken(spec.aggregation));
  GF_ASSIGN_OR_RETURN(problem.missing,
                      grouprec::MissingPolicyFromToken(spec.missing));
  problem.k = spec.k;
  problem.max_groups = spec.groups;
  problem.candidate_depth = spec.candidate_depth;
  problem.constraints = spec.constraints;
  GF_RETURN_IF_ERROR(problem.Validate());
  return problem;
}

std::string CheckPartition(serve::Session& session,
                           const serve::Request& request,
                           const serve::Response& response) {
  if (!response.has_groups) return "response has no groups";
  const auto loaded = session.cache().Get(request.instance);
  if (!loaded.ok()) return "instance: " + loaded.status().ToString();
  const auto problem = BuildProblem(request.problem, *loaded);
  if (!problem.ok()) return "problem: " + problem.status().ToString();
  core::FormationResult result;
  for (const auto& members : response.groups) {
    core::FormedGroup group;
    group.members = members;
    result.groups.push_back(std::move(group));
  }
  // Satisfactions stay 0, so ValidatePartition checks the partition
  // alone; the objective is checked against a fresh recomputation.
  if (const auto status = core::ValidatePartition(*problem, result);
      !status.ok()) {
    return "invalid partition: " + status.ToString();
  }
  const double recomputed = core::RecomputeObjective(*problem, result);
  if (recomputed != response.objective) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "objective %.17g != recomputed %.17g",
                  response.objective, recomputed);
    return buf;
  }
  return std::string();
}

Reference BuildReference(const Workload& w, serve::Session& session,
                         int threads) {
  Reference ref;
  // Cycles repeat lines across connections: answer each distinct line once.
  std::map<std::string, std::size_t> index;
  std::vector<const Item*> unique;
  for (const Connection& conn : w.connections) {
    for (const Item& item : conn.items) {
      if (index.emplace(item.line, unique.size()).second) {
        unique.push_back(&item);
      }
    }
  }
  std::vector<std::string> answers(unique.size());
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  auto work = [&] {
    for (std::size_t i = next++; i < unique.size(); i = next++) {
      const Item& item = *unique[i];
      answers[i] = session.HandleLine(item.line, Clock::now());
      const auto any = serve::ParseAnyRequestLine(item.line);
      if (!any.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        ref.problems.push_back("unparseable generated line: " +
                               any.status().ToString());
        continue;
      }
      if (!any->is_batch) {
        CheckResponse(session, any->request, answers[i], &ref, &mu);
        continue;
      }
      const auto docs = serve::SplitBatchResponseDocs(answers[i]);
      if (!docs.ok() || docs->size() != any->batch.requests.size()) {
        std::lock_guard<std::mutex> lock(mu);
        ref.problems.push_back(Describe(any->batch.id, "bad batch response"));
        continue;
      }
      for (std::size_t e = 0; e < docs->size(); ++e) {
        CheckResponse(session, any->batch.requests[e], (*docs)[e], &ref, &mu);
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();

  for (const Connection& conn : w.connections) {
    std::vector<std::string> expected;
    expected.reserve(conn.items.size());
    for (const Item& item : conn.items) {
      expected.push_back(answers[index.at(item.line)]);
    }
    ref.expected.push_back(std::move(expected));
  }
  return ref;
}

}  // namespace perfbench
