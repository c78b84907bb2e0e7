// Session execution semantics (DESIGN.md §12.2): OK requests match the
// in-process eval path, unknown solvers are ERR(NOT_FOUND), bad options
// are ERR(INVALID_ARGUMENT) via the factories' strict validation, caps
// and expired deadlines are DNF, parse failures still produce a response
// line, and a solve that throws answers its own request alone.
#include "serve/session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/solver.h"
#include "core/solver_registry.h"
#include "eval/experiment.h"
#include "serve/instance_cache.h"
#include "serve/protocol.h"
#include "solvers/builtin.h"

namespace groupform::serve {
namespace {

/// A small deterministic instance every registered solver handles fast.
InstanceSpec TestInstance() {
  InstanceSpec spec;
  spec.kind = "dense";
  spec.users = 12;
  spec.items = 8;
  spec.clusters = 3;
  spec.seed = 5;
  return spec;
}

Request TestRequest(const std::string& solver) {
  Request request;
  request.id = "t";
  request.solver = solver;
  request.instance = TestInstance();
  request.problem.k = 3;
  request.problem.groups = 4;
  return request;
}

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override { solvers::EnsureBuiltinSolversRegistered(); }
};

TEST_F(SessionTest, OkRequestMatchesTheInProcessEvalPath) {
  Session session;
  const Request request = TestRequest("greedy");
  const Response response = session.Execute(request);
  ASSERT_EQ(response.state, eval::SweepCellState::kOk) << response.status;
  EXPECT_EQ(response.id, "t");
  EXPECT_EQ(response.solver, "greedy");

  // The same instance and problem through the eval layer directly.
  const auto matrix = BuildInstance(request.instance);
  ASSERT_TRUE(matrix.ok());
  core::FormationProblem problem;
  problem.matrix = &*matrix;
  problem.k = 3;
  problem.max_groups = 4;
  const auto direct =
      eval::RunAlgorithmByName("greedy", problem, request.seed);
  ASSERT_TRUE(direct.ok()) << direct.status();
  EXPECT_EQ(response.objective, direct->result.objective);  // bitwise
  EXPECT_EQ(response.num_groups, direct->result.num_groups());
}

TEST_F(SessionTest, UnknownSolverIsErrNotFound) {
  Session session;
  const Response response = session.Execute(TestRequest("warpdrive"));
  EXPECT_EQ(response.state, eval::SweepCellState::kErr);
  EXPECT_EQ(response.status.code(), common::StatusCode::kNotFound);
  // The message lists the available solvers, as the CLI does.
  EXPECT_NE(response.status.message().find("greedy"), std::string::npos);
}

TEST_F(SessionTest, BadSolverOptionIsErrInvalidArgument) {
  Session session;
  Request request = TestRequest("localsearch");
  // parallel_moves is a strictly validated knob: a non-boolean override
  // fails SolverRegistry::Create.
  request.options.Set("parallel_moves", "banana");
  const Response response = session.Execute(request);
  EXPECT_EQ(response.state, eval::SweepCellState::kErr);
  EXPECT_EQ(response.status.code(),
            common::StatusCode::kInvalidArgument);
}

TEST_F(SessionTest, BadIntegerKnobsAnswerErrAndTheStreamContinues) {
  // A cooling_interval of 0 once reached `step % cooling_interval` and
  // killed the process with SIGFPE; 4294967296 truncated to 0 the same
  // way. Every out-of-range integer knob of sa and localsearch must fail
  // Create instead, answering ERR with the request's id, while the lines
  // before and after it answer OK.
  const std::vector<std::pair<std::string, std::pair<std::string,
                                                     std::string>>>
      bad = {{"sa", {"cooling_interval", "0"}},
             {"sa", {"cooling_interval", "4294967296"}},
             {"sa", {"cooling_interval", "-3"}},
             {"sa", {"iterations", "-1"}},
             {"sa", {"iterations", "2147483648"}},
             {"localsearch", {"max_passes", "-1"}},
             {"localsearch", {"max_passes", "9999999999"}},
             {"localsearch", {"swap_samples", "-2"}},
             {"localsearch", {"swap_samples", "4294967297"}}};
  Session session;
  for (const auto& [solver, knob] : bad) {
    Request before = TestRequest("greedy");
    before.id = "before";
    Request broken = TestRequest(solver);
    broken.id = "bad-" + knob.first;
    broken.options.Set(knob.first, knob.second);
    Request after = TestRequest("greedy");
    after.id = "after";
    std::vector<Response> responses;
    for (const Request& request : {before, broken, after}) {
      const auto parsed =
          ParseResponseLine(session.HandleLine(RenderRequest(request)));
      ASSERT_TRUE(parsed.ok()) << parsed.status();
      responses.push_back(*parsed);
    }
    SCOPED_TRACE(solver + " " + knob.first + "=" + knob.second);
    EXPECT_EQ(responses[0].state, eval::SweepCellState::kOk);
    EXPECT_EQ(responses[0].id, "before");
    EXPECT_EQ(responses[1].state, eval::SweepCellState::kErr);
    EXPECT_EQ(responses[1].status.code(),
              common::StatusCode::kInvalidArgument);
    EXPECT_EQ(responses[1].id, broken.id);
    EXPECT_EQ(responses[2].state, eval::SweepCellState::kOk);
    EXPECT_EQ(responses[2].id, "after");
  }
  // The bounds themselves stay accepted.
  Request edge = TestRequest("sa");
  edge.options.Set("cooling_interval", "1");
  edge.options.Set("iterations", "0");
  EXPECT_EQ(session.Execute(edge).state, eval::SweepCellState::kOk);
}

TEST_F(SessionTest, UserCapAnswersDnfWithoutRunning) {
  Session session;
  Request request = TestRequest("greedy");
  request.user_cap = 5;  // instance has 12 users
  const Response response = session.Execute(request);
  EXPECT_EQ(response.state, eval::SweepCellState::kDnf);
  EXPECT_EQ(response.status.code(),
            common::StatusCode::kResourceExhausted);

  // The server-wide default cap applies when the request sets none.
  SessionConfig config;
  config.default_user_cap = 5;
  Session capped(config);
  const Response capped_response = capped.Execute(TestRequest("greedy"));
  EXPECT_EQ(capped_response.state, eval::SweepCellState::kDnf);

  // A request cap above the instance size runs normally.
  request.user_cap = 100;
  EXPECT_EQ(session.Execute(request).state, eval::SweepCellState::kOk);
}

TEST_F(SessionTest, ExpiredDeadlineAnswersDnfBeforeExecuting) {
  Session session;
  Request request = TestRequest("greedy");
  request.deadline_ms = 1;
  // Stamp the request as received long ago: the deadline has passed
  // before execution starts, deterministically.
  const auto long_ago =
      std::chrono::steady_clock::now() - std::chrono::seconds(10);
  const Response response = session.Execute(request, long_ago);
  EXPECT_EQ(response.state, eval::SweepCellState::kDnf);
  EXPECT_EQ(response.status.code(),
            common::StatusCode::kResourceExhausted);
}

TEST_F(SessionTest, IncludeGroupsReturnsTheFullPartition) {
  Session session;
  Request request = TestRequest("greedy");
  request.include_groups = true;
  const Response response = session.Execute(request);
  ASSERT_EQ(response.state, eval::SweepCellState::kOk) << response.status;
  ASSERT_TRUE(response.has_groups);
  EXPECT_EQ(static_cast<int>(response.groups.size()),
            response.num_groups);
  // Disjoint cover of all 12 users.
  std::vector<UserId> all;
  for (const auto& group : response.groups) {
    all.insert(all.end(), group.begin(), group.end());
  }
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), 12u);
  for (UserId u = 0; u < 12; ++u) EXPECT_EQ(all[static_cast<size_t>(u)], u);
}

TEST_F(SessionTest, SecondsAppearOnlyWhenRequested) {
  Session session;
  Request request = TestRequest("greedy");
  const Response without = session.Execute(request);
  EXPECT_LT(without.seconds, 0.0);  // omitted from the rendered line
  EXPECT_EQ(RenderResponse(without).find("seconds"), std::string::npos);
  request.record_seconds = true;
  const Response with = session.Execute(request);
  EXPECT_GE(with.seconds, 0.0);
  EXPECT_NE(RenderResponse(with).find("\"seconds\":"), std::string::npos);
}

TEST_F(SessionTest, RequestsShareTheCachedInstance) {
  Session session;
  for (int i = 0; i < 5; ++i) {
    Request request = TestRequest("greedy");
    request.seed = static_cast<std::uint64_t>(100 + i);
    ASSERT_EQ(session.Execute(request).state, eval::SweepCellState::kOk);
  }
  const auto stats = session.cache().stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 4);
}

TEST_F(SessionTest, HandleLineAlwaysAnswersOneResponseLine) {
  Session session;
  const std::string ok_line =
      session.HandleLine(RenderRequest(TestRequest("greedy")));
  const auto ok = ParseResponseLine(ok_line);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->state, eval::SweepCellState::kOk);

  const std::string bad_line = session.HandleLine("this is not json");
  const auto bad = ParseResponseLine(bad_line);
  ASSERT_TRUE(bad.ok()) << bad.status();
  EXPECT_EQ(bad->state, eval::SweepCellState::kErr);
  EXPECT_EQ(bad->status.code(), common::StatusCode::kInvalidArgument);
  EXPECT_EQ(bad->id, "");
}

TEST_F(SessionTest, ProblemKnobsReachTheSolver) {
  Session session;
  Request request = TestRequest("greedy");
  request.problem.semantics = "av";
  request.problem.aggregation = "sum";
  request.problem.k = 2;
  const Response av = session.Execute(request);
  ASSERT_EQ(av.state, eval::SweepCellState::kOk) << av.status;
  const Response lm = session.Execute(TestRequest("greedy"));
  ASSERT_EQ(lm.state, eval::SweepCellState::kOk) << lm.status;
  // Different semantics/aggregation/k must not produce the same envelope.
  EXPECT_NE(RenderResponse(av), RenderResponse(lm));
}

TEST_F(SessionTest, IntMaxKAnswersTheBytesOfTheCatalogueSizedK) {
  // k = INT_MAX is a valid wire k. The request's personal top-k store
  // (DESIGN.md §20) is sized by rated cells, not by k, so it answers OK —
  // with the bytes of k = |I|, since every list then holds the whole row.
  Session session;
  for (const char* solver : {"greedy", "localsearch"}) {
    for (const char* semantics : {"lm", "av"}) {
      for (const char* aggregation : {"min", "sum", "max"}) {
        Request sized = TestRequest(solver);
        sized.include_groups = true;
        sized.problem.semantics = semantics;
        sized.problem.aggregation = aggregation;
        sized.problem.k = TestInstance().items;
        Request huge = sized;
        huge.problem.k = std::numeric_limits<int>::max();
        const std::string a = session.HandleLine(RenderRequest(sized));
        const std::string b = session.HandleLine(RenderRequest(huge));
        SCOPED_TRACE(std::string(solver) + " " + semantics + "/" +
                     aggregation);
        EXPECT_NE(a.find("\"state\":\"OK\""), std::string::npos) << a;
        EXPECT_EQ(b, a);
      }
    }
  }
}

/// A solver whose Solve throws, standing in for an allocation failure
/// (std::bad_alloc) or a library bug (std::runtime_error) deep inside a
/// solve.
class ThrowingSolver : public core::FormationSolver {
 public:
  explicit ThrowingSolver(bool out_of_memory)
      : out_of_memory_(out_of_memory) {}
  common::StatusOr<core::FormationResult> Solve(
      std::uint64_t) const override {
    if (out_of_memory_) throw std::bad_alloc();
    throw std::runtime_error("solver blew up");
  }
  std::string name() const override { return "throwing"; }
  std::string description() const override { return "test-only thrower"; }

 private:
  bool out_of_memory_;
};

/// Registers a ThrowingSolver as `name` for one test's scope.
class ScopedThrowingSolver {
 public:
  ScopedThrowingSolver(std::string name, bool out_of_memory)
      : name_(std::move(name)) {
    const auto status = core::SolverRegistry::Global().Register(
        name_, "test-only thrower",
        [out_of_memory](const core::FormationProblem&,
                        const core::SolverOptions&) {
          return common::StatusOr<std::unique_ptr<core::FormationSolver>>(
              std::make_unique<ThrowingSolver>(out_of_memory));
        });
    EXPECT_TRUE(status.ok()) << status;
  }
  ~ScopedThrowingSolver() { core::SolverRegistry::Global().Unregister(name_); }

 private:
  std::string name_;
};

TEST_F(SessionTest, ASolveThatThrowsAnswersItsOwnRequestAlone) {
  const ScopedThrowingSolver oom("test-throws-bad-alloc",
                                 /*out_of_memory=*/true);
  const ScopedThrowingSolver bug("test-throws-error",
                                 /*out_of_memory=*/false);
  struct Case {
    const char* solver;
    eval::SweepCellState state;
    common::StatusCode code;
  };
  for (const Case& c :
       {Case{"test-throws-bad-alloc", eval::SweepCellState::kDnf,
             common::StatusCode::kResourceExhausted},
        Case{"test-throws-error", eval::SweepCellState::kErr,
             common::StatusCode::kInternal}}) {
    SCOPED_TRACE(c.solver);
    Session session;

    // A lone request keeps its id.
    Request lone = TestRequest(c.solver);
    lone.id = "lone";
    const auto alone =
        ParseResponseLine(session.HandleLine(RenderRequest(lone)));
    ASSERT_TRUE(alone.ok()) << alone.status();
    EXPECT_EQ(alone->id, "lone");
    EXPECT_EQ(alone->state, c.state);
    EXPECT_EQ(alone->status.code(), c.code);

    // A throwing middle element leaves one batchresponse of three, whose
    // outer elements are byte-identical to their solo answers.
    BatchRequest batch;
    batch.id = "b";
    batch.requests = {TestRequest("greedy"), TestRequest(c.solver),
                      TestRequest("localsearch")};
    batch.requests[0].id = "first";
    batch.requests[1].id = "middle";
    batch.requests[2].id = "last";
    const std::string line = session.HandleLine(RenderBatchRequest(batch));
    const auto docs = SplitBatchResponseDocs(line);
    ASSERT_TRUE(docs.ok()) << line;
    ASSERT_EQ(docs->size(), 3u) << line;
    EXPECT_EQ((*docs)[0], session.HandleLine(RenderRequest(batch.requests[0])));
    EXPECT_EQ((*docs)[2], session.HandleLine(RenderRequest(batch.requests[2])));
    const auto middle = ParseResponseLine((*docs)[1]);
    ASSERT_TRUE(middle.ok()) << middle.status();
    EXPECT_EQ(middle->id, "middle");
    EXPECT_EQ(middle->state, c.state);
    EXPECT_EQ(middle->status.code(), c.code);
  }
}

}  // namespace
}  // namespace groupform::serve
