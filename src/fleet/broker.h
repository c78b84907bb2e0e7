#ifndef GROUPFORM_FLEET_BROKER_H_
#define GROUPFORM_FLEET_BROKER_H_

// The broker session (DESIGN.md §16): a serve::LineHandler that fronts a
// fleet of groupform_serverd workers. It plugs into the *same*
// transports as a single-process session — ServePipe, TcpServer, both
// wires — so a client cannot tell a broker from a worker by bytes alone
// (the broker-transparency contract, pinned by the fleet equivalence
// tests). Two routing modes:
//
//   * instance affinity — each request forwards, verbatim, to the worker
//     that consistent-hashing assigns its instance cache key. Workers
//     answer from their own caches; the fleet's aggregate cache is the
//     sum of the workers' (the memory-split mode). The worker's response
//     document returns to the client verbatim.
//   * scatter/gather — eligible requests (greedy, non-delta, full-
//     catalogue candidates) split one solve across every worker:
//     per-user top-k extraction by user range, the residual group's
//     catalogue scan by item range (groupform.shard/1), folded and
//     merged locally so the response is byte-identical to a
//     single-process solve. Ineligible requests fall back to affinity.
//
// Failure policy, per request: a failed worker call retries once on a
// fresh connection after a bounded backoff; still failing, the request
// answers ERR(UNAVAILABLE) — the stream never hangs, and other requests
// (other workers) are unaffected.

#include <chrono>
#include <string>

#include "common/status.h"
#include "fleet/hash_ring.h"
#include "fleet/transport.h"
#include "serve/line_handler.h"
#include "serve/protocol.h"
#include "serve/session.h"

namespace groupform::fleet {

struct BrokerConfig {
  enum class Mode { kAffinity, kScatter };
  Mode mode = Mode::kAffinity;
  /// Re-attempts after a failed worker call (on a fresh connection).
  int retries = 1;
  /// Pause before each re-attempt.
  int backoff_ms = 50;
  /// Virtual nodes per worker on the routing ring.
  int virtual_nodes = 64;
  /// Scatter mode: item-range width of each topk_items shard RPC in the
  /// residual group's distributed top-k.
  std::int64_t residual_shard_items = 4096;
  /// The broker's local session (scatter-mode solves and shard requests
  /// load instances through it; pure-affinity brokers keep it idle).
  serve::SessionConfig session;
};

class BrokerSession : public serve::LineHandler {
 public:
  BrokerSession(BrokerConfig config, Transport& transport);

  /// One request line in, one response line out — serve::LineHandler, so
  /// ServePipe/TcpServer drive a broker exactly as they drive a Session.
  std::string HandleLine(
      const std::string& line,
      std::chrono::steady_clock::time_point received_at) override;

  const HashRing& ring() const { return ring_; }

 private:
  /// transport_.Call with the per-request failure policy: one reset +
  /// backoff + retry round per configured attempt.
  common::StatusOr<std::string> CallWithRetry(int worker,
                                              const std::string& doc);
  /// Routes one parsed request (whose canonical document is `doc`) and
  /// returns its canonical response document.
  std::string RouteOne(const serve::Request& request,
                       const std::string& doc,
                       std::chrono::steady_clock::time_point received_at);
  bool ScatterEligible(const serve::Request& request) const;
  /// The batch envelope: affinity-routable elements group into one
  /// sub-batch per owner worker (dispatched concurrently, gathered
  /// verbatim), scatter-eligible elements keep the per-element scatter
  /// path, and the documents splice back in request order.
  std::string ExecuteBatch(
      const serve::BatchRequest& batch, const std::string& line,
      std::chrono::steady_clock::time_point received_at);
  /// The scatter/gather path: local session solve with the distributed
  /// greedy hooks bound to the worker fleet.
  serve::Response ExecuteScatter(
      const serve::Request& request,
      std::chrono::steady_clock::time_point received_at);
  /// Renders, sends, and parses one shard RPC routed by `routing_key`.
  common::StatusOr<serve::ShardResponse> CallShard(
      const serve::ShardRequest& shard, const std::string& routing_key);

  BrokerConfig config_;
  Transport& transport_;
  HashRing ring_;
  serve::Session session_;
};

}  // namespace groupform::fleet

#endif  // GROUPFORM_FLEET_BROKER_H_
