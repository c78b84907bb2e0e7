#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <utility>

#include "core/delta.h"
#include "serve/protocol.h"

namespace perfbench {
namespace {

namespace core = groupform::core;
namespace serve = groupform::serve;
using groupform::ItemId;
using groupform::Rating;
using groupform::UserId;
using serve::InstanceSpec;
using serve::Request;

/// splitmix64: independent sub-seeds from the workload seed.
std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) & 0xffffffffULL;
}

InstanceSpec Synthetic(const char* preset, int users, int items,
                       std::uint64_t seed, const char* backend = "dense") {
  InstanceSpec spec;
  spec.kind = "synthetic";
  spec.preset = preset;
  spec.users = users;
  spec.items = items;
  spec.seed = seed;
  spec.backend = backend;
  return spec;
}

InstanceSpec Dense(int users, int items, int clusters, std::uint64_t seed) {
  InstanceSpec spec;
  spec.kind = "dense";
  spec.users = users;
  spec.items = items;
  spec.clusters = clusters;
  spec.seed = seed;
  return spec;
}

Request MakeRequest(std::string id, std::string solver,
                    const InstanceSpec& spec, const char* semantics,
                    const char* aggregation, int k, int groups,
                    std::uint64_t seed, bool include_groups) {
  Request request;
  request.id = std::move(id);
  request.solver = std::move(solver);
  request.instance = spec;
  request.problem.semantics = semantics;
  request.problem.aggregation = aggregation;
  request.problem.k = k;
  request.problem.groups = groups;
  request.seed = seed;
  request.include_groups = include_groups;
  return request;
}

Item Single(const Request& request, std::string kind) {
  return Item{serve::RenderRequest(request), std::move(kind), false};
}

std::string SetupLine(const InstanceSpec& spec, int index) {
  return serve::RenderRequest(MakeRequest("setup-" + std::to_string(index),
                                          "greedy", spec, "lm", "min", 5, 10,
                                          1, false));
}

constexpr const char* kSemantics[] = {"lm", "av"};
constexpr const char* kAggregations[] = {"min", "sum", "max"};

/// The same cycle for every connection, each starting at its own offset
/// so concurrent connections do not move in lockstep.
void SpreadCycle(const std::vector<Item>& cycle, int connections,
                 Workload* w) {
  for (int c = 0; c < connections; ++c) {
    Connection conn;
    const std::size_t offset = cycle.size() * c / connections;
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      conn.items.push_back(cycle[(offset + i) % cycle.size()]);
    }
    w->connections.push_back(std::move(conn));
  }
}

/// Large-catalogue greedy-family traffic (greedy_catalog, fleet_scatter):
/// every (instance, semantics, aggregation, (k, ell) from `kls`)
/// combination once, the instance varying fastest, so any stretch of the
/// cycle carries the same mix whatever the seed. Combination (instance i, variant v) goes to
/// capgreedy (size bounds) when (i + v) % `every` == `every` - 1 and,
/// when `with_fair`, to fairgreedy when (i + v) % `every` == `every`/2 - 1.
std::vector<Item> GreedyCycle(const std::vector<InstanceSpec>& specs,
                              const std::vector<std::pair<int, int>>& kls,
                              std::uint64_t seed, const char* prefix,
                              int every, bool with_fair) {
  struct Variant {
    const char* semantics;
    const char* aggregation;
    int k;
    int groups;
  };
  std::vector<Variant> variants;
  for (const char* sem : kSemantics) {
    for (const char* agg : kAggregations) {
      for (const auto& [k, groups] : kls) {
        variants.push_back({sem, agg, k, groups});
      }
    }
  }
  std::vector<Item> cycle;
  const std::size_t n = specs.size() * variants.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t instance = i % specs.size();
    const std::size_t v = i / specs.size();
    const InstanceSpec& spec = specs[instance];
    const Variant& c = variants[v];
    const int pos = static_cast<int>((instance + v) % every);
    std::string solver = "greedy";
    if (pos == every - 1) {
      solver = "capgreedy";
    } else if (with_fair && pos == every / 2 - 1) {
      solver = "fairgreedy";
    }
    Request request = MakeRequest(prefix + std::to_string(i), solver, spec,
                                  c.semantics, c.aggregation, c.k, c.groups,
                                  Mix(seed, 100 + i), true);
    if (solver == "capgreedy") {
      request.problem.constraints.min_group_size = 2;
      request.problem.constraints.max_group_size = static_cast<int>(
          std::ceil(1.6 * spec.users / static_cast<double>(c.groups)));
    } else if (solver == "fairgreedy") {
      // A floor every user meets: fairgreedy scores every user against
      // it without the relocation repair, whose cost would swamp the
      // workload (seconds per request at this catalogue size).
      request.problem.constraints.has_min_user_sat = true;
      request.problem.constraints.min_user_sat = 1.0;
    }
    cycle.push_back(Single(request, solver));
  }
  return cycle;
}

void GreedyCatalog(std::uint64_t seed, bool smoke, Workload* w) {
  w->why =
      "full-catalogue top-k and metric re-scoring: grouprec and eval dominate "
      "request time";
  w->server_threads = 2;
  const int items = smoke ? 1000 : 20000;
  const int scale = smoke ? 10 : 1;
  const InstanceSpec yahoo =
      Synthetic("yahoo", 2000 / scale, items, Mix(seed, 1));
  std::vector<InstanceSpec> specs = {
      yahoo,
      Synthetic("movielens", 3000 / scale, items, Mix(seed, 2)),
      Synthetic("yahoo", 2000 / scale, items, Mix(seed, 1), "compact"),
      Synthetic("yahoo", 5000 / scale, items, Mix(seed, 3)),
  };
  for (std::size_t i = 0; i < specs.size(); ++i) {
    w->setup_lines.push_back(SetupLine(specs[i], static_cast<int>(i)));
  }
  SpreadCycle(GreedyCycle(specs, {{5, 10}, {10, 20}}, seed, "gc-", 8, true),
              2, w);
}

void SearchRefine(std::uint64_t seed, bool smoke, Workload* w) {
  w->why =
      "fixed-work localsearch and sa: exact's move evaluation dominates "
      "request time";
  w->server_threads = 2;
  // Four small instances: a run's costs average over four datasets, so
  // the median does not hinge on one item's cost.
  const std::vector<InstanceSpec> specs = {
      Synthetic("yahoo", smoke ? 60 : 200, smoke ? 100 : 500, Mix(seed, 1)),
      Synthetic("movielens", smoke ? 60 : 240, smoke ? 100 : 600,
                Mix(seed, 2)),
      Synthetic("yahoo", smoke ? 60 : 240, smoke ? 100 : 400, Mix(seed, 3)),
      Synthetic("movielens", smoke ? 60 : 200, smoke ? 100 : 500,
                Mix(seed, 4)),
  };
  // Relocations only (no swaps) and a fixed SA budget keep every shape
  // near the same cost, so medians do not straddle cost classes.
  struct Shape {
    const char* solver;
    const char* semantics;
    const char* aggregation;
  };
  constexpr Shape kShapes[] = {
      {"localsearch", "lm", "min"},
      {"localsearch", "av", "sum"},
      {"sa", "lm", "max"},
      {"sa", "av", "min"},
  };
  for (std::size_t i = 0; i < specs.size(); ++i) {
    w->setup_lines.push_back(SetupLine(specs[i], static_cast<int>(i)));
  }
  std::vector<Item> cycle;
  for (const Shape& s : kShapes) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const int id = static_cast<int>(cycle.size());
      Request request = MakeRequest(
          "sr-" + std::to_string(id), s.solver, specs[i], s.semantics,
          s.aggregation, 5, i % 2 == 0 ? 10 : 8, Mix(seed, 200 + id), true);
      if (std::string(s.solver) == "localsearch") {
        request.options.Set("max_passes", "1");
        request.options.Set("use_swaps", "false");
      } else {
        request.options.Set("iterations", "1200");
      }
      cycle.push_back(Single(request, s.solver));
    }
  }
  SpreadCycle(cycle, 1, w);
}

/// Cumulative delta operations on a 40-user base: rerates of users 0..29
/// interleaved with removals and re-additions of users 30..39, so every
/// prefix is a valid sequence.
std::vector<core::PopulationDelta> DeltaOps(std::size_t count,
                                            std::uint64_t seed) {
  std::vector<core::PopulationDelta> ops;
  std::mt19937_64 rng(seed);
  std::vector<UserId> removed;
  UserId next_removal = 30;
  for (std::size_t t = 0; ops.size() < count; ++t) {
    core::PopulationDelta op;
    if (t % 6 == 2 && next_removal < 40) {
      op.kind = core::PopulationDelta::Kind::kRemoveUser;
      op.user = next_removal++;
      removed.push_back(op.user);
    } else if (t % 6 == 5 && !removed.empty()) {
      op.kind = core::PopulationDelta::Kind::kAddUser;
      op.user = removed.front();
      removed.erase(removed.begin());
    } else {
      op.kind = core::PopulationDelta::Kind::kRerate;
      op.user = static_cast<UserId>(rng() % 30);
      op.item = static_cast<ItemId>(rng() % 30);
      op.rating = static_cast<Rating>(1 + rng() % 5);
    }
    ops.push_back(op);
  }
  return ops;
}

void WireChurn(std::uint64_t seed, double seconds, bool smoke, Workload* w) {
  w->why =
      "cheap cache hits, forced misses, batches and deltas on both wires: "
      "serve and data dominate";
  w->open_loop = true;
  w->server_threads = 2;
  w->cache_mb = 1;
  w->max_inflight = 32;
  // Reads hit four tiny resident 8x6 instances, where solve and metrics
  // cost less than parse and render; deltas grow on a resident 40-user
  // base; misses rotate through eight distinct ~300 KB instances against
  // a 1 MB cache, so every miss finds its instance evicted.
  std::vector<InstanceSpec> tiny;
  for (int j = 0; j < 4; ++j) {
    tiny.push_back(Dense(8, 6, 2, Mix(seed, 20 + j)));
    w->setup_lines.push_back(SetupLine(tiny.back(), j));
  }
  const InstanceSpec delta_base = Dense(40, 30, 3, Mix(seed, 25));
  w->setup_lines.push_back(SetupLine(delta_base, 4));
  std::vector<InstanceSpec> mids;
  for (int m = 0; m < 8; ++m) {
    mids.push_back(Dense(smoke ? 60 : 120, smoke ? 80 : 160, 4,
                         Mix(seed, 40 + m)));
  }
  // One send per slot: R read, M miss, B batch of 256 reads, D delta.
  // Three quarters of all sends are batches, so the median is a batch:
  // ten milliseconds of parse, cache, solve and render, where a single
  // read is a few hundred microseconds that vCPU wake-up jitter alone can
  // double. The JSON client sends cache hits only; the GFB1 client also
  // carries the misses, about sixty a run, which own the tail.
  struct Client {
    const char* pattern;
    double rate_rps;
  };
  constexpr Client kClients[] = {{"BBBRBBBBRBBBBRBBBRBD", 40.0},
                                 {"MBBB", 12.0}};
  const std::vector<core::PopulationDelta> ops = DeltaOps(
      static_cast<std::size_t>(std::ceil(40.0 * seconds / 20.0)) + 2,
      Mix(seed, 30));
  std::mt19937_64 rng(Mix(seed, 12));
  auto read = [&](const std::string& id) {
    return MakeRequest(id, "greedy", tiny[rng() % tiny.size()],
                       kSemantics[rng() % 2], kAggregations[rng() % 3], 2, 2,
                       rng() % 1000, true);
  };
  std::size_t misses = 0;
  std::size_t deltas = 0;
  for (std::size_t c = 0; c < 2; ++c) {
    const Client& client = kClients[c];
    const std::string pattern = client.pattern;
    Connection conn;
    conn.binary = c == 1;
    conn.rate_rps = client.rate_rps;
    conn.phase_ms = c == 1 ? 10.0 : 0.0;
    const std::size_t count =
        static_cast<std::size_t>(std::ceil(client.rate_rps * seconds)) + 1;
    for (std::size_t i = 0; i < count; ++i) {
      const std::string id =
          "wc" + std::to_string(c) + "-" + std::to_string(i);
      switch (pattern[i % pattern.size()]) {
        case 'B': {
          serve::BatchRequest batch;
          batch.id = id;
          for (int e = 0; e < 256; ++e) {
            batch.requests.push_back(read(id + "." + std::to_string(e)));
          }
          conn.items.push_back(
              Item{serve::RenderBatchRequest(batch), "batch", true});
          break;
        }
        case 'M':
          conn.items.push_back(Single(
              MakeRequest(id, "greedy", mids[misses++ % mids.size()], "lm",
                          "sum", 5, 6, rng() % 1000, true),
              "miss"));
          break;
        case 'D': {
          // Cumulative: each delta request carries every operation so far,
          // so each one names a new epoch.
          Request request = MakeRequest(id, "greedy", delta_base, "lm",
                                        "min", 3, 4, 1, false);
          request.is_delta = true;
          request.deltas.assign(ops.begin(), ops.begin() + ++deltas);
          conn.items.push_back(Single(request, "delta"));
          break;
        }
        default:
          conn.items.push_back(Single(read(id), "read"));
      }
    }
    w->connections.push_back(std::move(conn));
  }
}

void FleetScatter(std::uint64_t seed, bool smoke, Workload* w) {
  w->why =
      "broker scatter/gather over two workers: hash ring, transport, shard "
      "RPCs and MergeShardTopK";
  w->fleet = true;
  w->fleet_workers = 2;
  w->server_threads = 1;
  const int items = smoke ? 1000 : 20000;
  const int users = smoke ? 200 : 4000;
  const std::vector<InstanceSpec> specs = {
      Synthetic("yahoo", users, items, Mix(seed, 1)),
      Synthetic("movielens", users, items, Mix(seed, 2)),
  };
  for (std::size_t i = 0; i < specs.size(); ++i) {
    w->setup_lines.push_back(SetupLine(specs[i], static_cast<int>(i)));
  }
  // One (k, ell): at 4000 users (5, 10) costs about two thirds of
  // (10, 20), and a half-and-half mix puts the median in the gap between
  // the two, where it jumps from run to run.
  SpreadCycle(GreedyCycle(specs, {{10, 20}}, seed, "fs-", 4, false), 1, w);
}

}  // namespace

bool MakeWorkload(const std::string& name, std::uint64_t seed,
                  double seconds, bool smoke, Workload* out) {
  Workload w;
  w.name = name;
  if (name == "greedy_catalog") {
    GreedyCatalog(seed, smoke, &w);
  } else if (name == "search_refine") {
    SearchRefine(seed, smoke, &w);
  } else if (name == "wire_churn") {
    WireChurn(seed, seconds, smoke, &w);
  } else if (name == "fleet_scatter") {
    FleetScatter(seed, smoke, &w);
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

}  // namespace perfbench
