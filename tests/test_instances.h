/// \file tests/test_instances.h
/// Shared fixtures for the api-layer test suites (api_test, stream_test,
/// serve_test, fault_injection_test): a self-owning grid-backed
/// CostDistanceInstance builder, the tiny router chip, the solve- and
/// router-result bit-identity comparators, and the router invariants
/// recomputed from scratch. One definition, so the suites cannot drift
/// apart on instance shape.

#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>
#include <set>
#include <vector>

#include "core/cost_distance.h"
#include "grid/future_cost.h"
#include "grid/routing_grid.h"
#include "route/netlist_gen.h"
#include "route/router.h"
#include "util/rng.h"

namespace cdst::testutil {

/// Bundle owning everything a grid instance points to.
struct GridInstance {
  std::unique_ptr<RoutingGrid> grid;
  std::unique_ptr<FutureCost> fc;
  std::vector<double> cost;
  std::vector<double> delay;
  CostDistanceInstance inst;
};

/// Heap-allocated so the self-referential inst.cost/inst.delay pointers can
/// never dangle through a return-path move (NRVO is not guaranteed).
inline std::unique_ptr<GridInstance> make_grid_instance(
    std::uint64_t seed, int nx, int ny, int nz, std::size_t num_sinks,
    double dbif = 2.0) {
  auto gi = std::make_unique<GridInstance>();
  gi->grid = std::make_unique<RoutingGrid>(
      nx, ny, make_default_layer_stack(nz), ViaSpec{});
  gi->fc = std::make_unique<FutureCost>(*gi->grid);
  Rng rng(seed);
  const Graph& g = gi->grid->graph();
  gi->cost.resize(g.num_edges());
  gi->delay = gi->grid->edge_delays();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    gi->cost[e] = gi->grid->base_costs()[e] *
                  std::exp(rng.uniform_double(0.0, 2.0));
  }
  gi->inst.graph = &g;
  gi->inst.cost = &gi->cost;
  gi->inst.delay = &gi->delay;
  gi->inst.dbif = dbif;
  gi->inst.eta = 0.25;
  std::set<VertexId> used;
  auto pick = [&]() {
    while (true) {
      const auto x = static_cast<std::int32_t>(rng.uniform(nx));
      const auto y = static_cast<std::int32_t>(rng.uniform(ny));
      const VertexId v = gi->grid->vertex_at(x, y, 0);
      if (used.insert(v).second) return v;
    }
  };
  gi->inst.root = pick();
  for (std::size_t s = 0; s < num_sinks; ++s) {
    gi->inst.sinks.push_back(
        Terminal{pick(), std::exp(rng.uniform_double(-2.0, 2.0))});
  }
  return gi;
}

inline ChipConfig tiny_chip() {
  ChipConfig c;
  c.name = "tiny";
  c.num_nets = 60;
  c.num_layers = 4;
  c.nx = c.ny = 20;
  c.capacity = 10.0;
  c.seed = 7;
  return c;
}

/// Solve-result bit-identity: same tree edges, objective, and search work.
inline void expect_same(const SolveResult& a, const SolveResult& b,
                        std::size_t index, const char* what) {
  EXPECT_EQ(a.tree.all_edges(), b.tree.all_edges()) << what << " " << index;
  EXPECT_DOUBLE_EQ(a.eval.objective, b.eval.objective) << what << " " << index;
  EXPECT_EQ(a.stats.labels_settled, b.stats.labels_settled)
      << what << " " << index;
}

/// Router-result bit-identity: routes, sink delays and multipliers, all
/// compared exactly.
inline void expect_same_routing(const RouterResult& got,
                                const RouterResult& want) {
  ASSERT_EQ(got.routes.size(), want.routes.size());
  for (std::size_t i = 0; i < got.routes.size(); ++i) {
    EXPECT_EQ(got.routes[i], want.routes[i]) << "net " << i;
  }
  EXPECT_EQ(got.sink_delays, want.sink_delays);
  EXPECT_EQ(got.sink_weights, want.sink_weights);
}

/// Router invariants recomputed from scratch, not compared with another
/// run: every route connects its net's source to every sink (union-find
/// over the endpoints of the route's grid edges), and congestion loaded
/// afresh from the routes reproduces result.congestion bit for bit.
inline void expect_router_invariants(const RoutingGrid& grid,
                                     const Netlist& netlist,
                                     const CongestionParams& congestion,
                                     const RouterResult& result) {
  ASSERT_EQ(result.routes.size(), netlist.nets.size());
  const Graph& g = grid.graph();
  std::vector<VertexId> parent(g.num_vertices());
  const auto find = [&](VertexId v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  };
  for (std::size_t i = 0; i < netlist.nets.size(); ++i) {
    const Net& net = netlist.nets[i];
    std::iota(parent.begin(), parent.end(), VertexId{0});
    for (const EdgeId e : result.routes[i]) {
      parent[find(g.tail(e))] = find(g.head(e));
    }
    const VertexId root = find(grid.vertex_at(net.source));
    for (std::size_t s = 0; s < net.sinks.size(); ++s) {
      EXPECT_EQ(find(grid.vertex_at(net.sinks[s].pos)), root)
          << "net " << i << " leaves sink " << s << " unconnected";
    }
  }

  CongestionCosts fresh(grid, congestion);
  for (const std::vector<EdgeId>& route : result.routes) {
    if (!route.empty()) fresh.add_usage(route, +1.0);
  }
  const CongestionReport want = compute_ace(fresh);
  EXPECT_EQ(result.congestion.ace, want.ace);
  EXPECT_EQ(result.congestion.ace4, want.ace4);
  EXPECT_EQ(result.congestion.max_utilization, want.max_utilization);
  EXPECT_EQ(result.congestion.overfull_edges, want.overfull_edges);
}

}  // namespace cdst::testutil
