// Broker transparency (DESIGN.md §16): a BrokerSession fronting real
// groupform_serverd-equivalent workers answers byte-identical response
// documents to a single local Session — every fleet size, both
// broker→worker wires, both routing modes, for every response shape the
// protocol produces (fresh solves, cache hits, groups, deltas, a DNF,
// an ERR) plus the batch envelope. The workers here are in-process
// TcpServers around ordinary Sessions, i.e. exactly what a serverd
// process wraps, minus fork/exec (supervisor_test covers that).
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "fleet/broker.h"
#include "fleet/transport.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"
#include "solvers/builtin.h"

namespace groupform::fleet {
namespace {

serve::Request BaseRequest(const std::string& id, std::uint64_t seed) {
  serve::Request request;
  request.id = id;
  request.solver = "greedy";
  request.instance.kind = "dense";
  request.instance.users = 8;
  request.instance.items = 5;
  request.instance.clusters = 2;
  request.instance.seed = seed;
  request.problem.k = 2;
  request.problem.groups = 3;
  return request;
}

/// Same vocabulary as the serve wire-equivalence set, over three
/// distinct instances so affinity routing actually spreads the keys.
std::vector<serve::Request> MixedRequests() {
  std::vector<serve::Request> requests;
  requests.push_back(BaseRequest("fresh", 4));
  requests.push_back(BaseRequest("hit", 4));
  serve::Request groups = BaseRequest("groups", 4);
  groups.include_groups = true;
  requests.push_back(groups);
  serve::Request local = BaseRequest("local", 4);
  local.solver = "localsearch";  // scatter-ineligible → affinity path
  requests.push_back(local);
  requests.push_back(BaseRequest("other", 9));
  requests.push_back(BaseRequest("third", 23));
  serve::Request capped = BaseRequest("capped", 4);
  capped.user_cap = 4;  // 8 users > cap → DNF
  requests.push_back(capped);
  serve::Request unknown = BaseRequest("unknown", 4);
  unknown.solver = "no-such-solver";  // → ERR(NOT_FOUND)
  requests.push_back(unknown);
  serve::Request delta = BaseRequest("delta", 4);
  delta.is_delta = true;
  delta.deltas.push_back(
      {core::PopulationDelta::Kind::kRemoveUser, 3, 0, 0.0});
  requests.push_back(delta);
  serve::Request delta2 = BaseRequest("delta2", 9);
  delta2.is_delta = true;
  delta2.deltas.push_back({core::PopulationDelta::Kind::kRerate, 1, 2, 3.0});
  requests.push_back(delta2);
  // Constraint-bearing (DESIGN.md §17): the constraints object must ride
  // the broker→worker wire and the partition must come back verbatim.
  serve::Request constrained = BaseRequest("constrained", 4);
  constrained.solver = "capgreedy";
  constrained.problem.constraints.min_group_size = 2;
  constrained.problem.constraints.max_group_size = 4;
  constrained.include_groups = true;
  requests.push_back(constrained);
  // Anytime partial (§17.4): a zero budget answers the greedy-seed
  // snapshot with partial=true — wall-clock free, so byte-stable here.
  serve::Request partial = BaseRequest("partial", 4);
  partial.solver = "anytime:localsearch";
  partial.options.Set("deadline_ms", "0");
  requests.push_back(partial);
  return requests;
}

std::vector<std::string> RenderAll(
    const std::vector<serve::Request>& requests) {
  std::vector<std::string> lines;
  lines.reserve(requests.size());
  for (const serve::Request& request : requests) {
    lines.push_back(serve::RenderRequest(request));
  }
  return lines;
}

/// An in-process stand-in for one serverd worker: its own Session behind
/// a real TcpServer on an ephemeral loopback port.
struct Worker {
  std::unique_ptr<serve::Session> session;
  std::unique_ptr<serve::TcpServer> server;
  std::thread serving;

  Worker() {
    session = std::make_unique<serve::Session>();
    serve::ServerConfig config;
    config.port = 0;
    config.max_inflight = 4;
    server = std::make_unique<serve::TcpServer>(*session, config);
  }

  void Stop() {
    if (server != nullptr) server->Shutdown();
    if (serving.joinable()) serving.join();
  }
  ~Worker() { Stop(); }
};

class BrokerEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    solvers::EnsureBuiltinSolversRegistered();
    common::ThreadPool::SetDefaultThreadCount(2);
  }
  void TearDown() override {
    common::ThreadPool::SetDefaultThreadCount(0);
  }

  static std::vector<std::unique_ptr<Worker>> StartWorkers(int count) {
    std::vector<std::unique_ptr<Worker>> workers;
    for (int i = 0; i < count; ++i) {
      auto worker = std::make_unique<Worker>();
      EXPECT_TRUE(worker->server->Start().ok());
      serve::TcpServer* server = worker->server.get();
      worker->serving = std::thread([server] {
        const auto status = server->Serve();
        EXPECT_TRUE(status.ok()) << status.ToString();
      });
      workers.push_back(std::move(worker));
    }
    return workers;
  }

  static std::vector<Endpoint> EndpointsOf(
      const std::vector<std::unique_ptr<Worker>>& workers) {
    std::vector<Endpoint> endpoints;
    for (const auto& worker : workers) {
      endpoints.push_back({"127.0.0.1", worker->server->port()});
    }
    return endpoints;
  }
};

TEST_F(BrokerEquivalenceTest, FleetMatchesSingleProcessByteForByte) {
  const std::vector<std::string> lines = RenderAll(MixedRequests());
  const auto now = std::chrono::steady_clock::now();

  // Golden: one local Session, strictly sequential — the bytes a client
  // of a single groupform_serverd would read back.
  std::vector<std::string> golden;
  {
    serve::Session session;
    for (const std::string& line : lines) {
      golden.push_back(session.HandleLine(line, now));
    }
  }

  for (const int num_workers : {1, 2, 4}) {
    for (const auto wire : {serve::WireClient::Wire::kJson,
                            serve::WireClient::Wire::kBinary}) {
      for (const auto mode : {BrokerConfig::Mode::kAffinity,
                              BrokerConfig::Mode::kScatter}) {
        SCOPED_TRACE(testing::Message()
                     << "workers=" << num_workers << " wire="
                     << (wire == serve::WireClient::Wire::kJson ? "json"
                                                                : "binary")
                     << " mode="
                     << (mode == BrokerConfig::Mode::kAffinity
                             ? "affinity"
                             : "scatter"));
        auto workers = StartWorkers(num_workers);
        TcpTransport transport(EndpointsOf(workers), wire);
        BrokerConfig config;
        config.mode = mode;
        config.retries = 1;
        config.backoff_ms = 1;
        config.residual_shard_items = 2;  // force multi-shard residuals
        BrokerSession broker(config, transport);

        for (std::size_t i = 0; i < lines.size(); ++i) {
          EXPECT_EQ(broker.HandleLine(lines[i], now), golden[i])
              << "request " << i;
        }
        // Workers only drain once the broker's pooled connections close:
        // drop them before the servers shut down (scope exit then
        // destroys broker → transport → workers, in that order).
        for (int w = 0; w < num_workers; ++w) transport.Reset(w);
      }
    }
  }
}

TEST_F(BrokerEquivalenceTest, BatchEnvelopeMatchesSingleProcess) {
  serve::BatchRequest batch;
  batch.id = "b-7";
  batch.requests = MixedRequests();
  const std::string batch_line = serve::RenderBatchRequest(batch);
  const auto now = std::chrono::steady_clock::now();

  std::string golden;
  {
    serve::Session session;
    golden = session.HandleLine(batch_line, now);
  }

  for (const auto mode :
       {BrokerConfig::Mode::kAffinity, BrokerConfig::Mode::kScatter}) {
    SCOPED_TRACE(mode == BrokerConfig::Mode::kAffinity ? "affinity"
                                                       : "scatter");
    auto workers = StartWorkers(2);
    TcpTransport transport(EndpointsOf(workers),
                           serve::WireClient::Wire::kBinary);
    BrokerConfig config;
    config.mode = mode;
    config.backoff_ms = 1;
    BrokerSession broker(config, transport);
    EXPECT_EQ(broker.HandleLine(batch_line, now), golden);
    for (int w = 0; w < 2; ++w) transport.Reset(w);
  }
}

TEST_F(BrokerEquivalenceTest, MalformedLineAnswersSameErrAsWorker) {
  const auto now = std::chrono::steady_clock::now();
  serve::Session session;
  auto workers = StartWorkers(1);
  TcpTransport transport(EndpointsOf(workers),
                         serve::WireClient::Wire::kBinary);
  BrokerConfig config;
  BrokerSession broker(config, transport);
  for (const std::string& line :
       {std::string("{not json"), std::string("{\"schema\":\"nope/9\"}")}) {
    EXPECT_EQ(broker.HandleLine(line, now), session.HandleLine(line, now))
        << line;
  }
}

}  // namespace
}  // namespace groupform::fleet
