// Tests for the cost-distance solver (Algorithm 1 + Section III
// enhancements): structural validity, objective consistency, optimality on
// special cases, comparison against the exact enumeration oracle, and
// behaviour of every enhancement toggle.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <memory>
#include <set>
#include <utility>

#include "api/cd_solver.h"
#include "core/cost_distance.h"
#include "embed/embedder.h"
#include "embed/enumerate.h"
#include "graph/dijkstra.h"
#include "grid/future_cost.h"
#include "topology/rsmt.h"
#include "grid/routing_grid.h"
#include "route/steiner_oracle.h"
#include "util/rng.h"

namespace cdst {
namespace {

/// Bundle owning everything a grid instance points to.
struct GridInstance {
  std::unique_ptr<RoutingGrid> grid;
  std::unique_ptr<FutureCost> fc;
  std::vector<double> cost;
  std::vector<double> delay;
  CostDistanceInstance inst;
};

/// Random congested instance on a small grid.
GridInstance make_grid_instance(std::uint64_t seed, int nx, int ny, int nz,
                                std::size_t num_sinks, double dbif = 0.0,
                                double eta = 0.25) {
  GridInstance gi;
  gi.grid = std::make_unique<RoutingGrid>(
      nx, ny, make_default_layer_stack(nz), ViaSpec{});
  gi.fc = std::make_unique<FutureCost>(*gi.grid);
  Rng rng(seed);
  const Graph& g = gi.grid->graph();
  gi.cost.resize(g.num_edges());
  gi.delay = gi.grid->edge_delays();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    // Congestion multiplier in [1, ~7], uncorrelated with delay.
    gi.cost[e] = gi.grid->base_costs()[e] *
                 std::exp(rng.uniform_double(0.0, 2.0));
  }
  gi.inst.graph = &g;
  gi.inst.cost = &gi.cost;
  gi.inst.delay = &gi.delay;
  gi.inst.dbif = dbif;
  gi.inst.eta = eta;
  // Distinct terminal vertices on the bottom layer.
  std::set<VertexId> used;
  auto pick = [&]() {
    while (true) {
      const auto x = static_cast<std::int32_t>(rng.uniform(nx));
      const auto y = static_cast<std::int32_t>(rng.uniform(ny));
      const VertexId v = gi.grid->vertex_at(x, y, 0);
      if (used.insert(v).second) return v;
    }
  };
  gi.inst.root = pick();
  for (std::size_t s = 0; s < num_sinks; ++s) {
    gi.inst.sinks.push_back(
        Terminal{pick(), std::exp(rng.uniform_double(-2.0, 2.0))});
  }
  return gi;
}

/// One solve through a fresh CdSolver session; the test fails if it does
/// not succeed.
SolveResult solve(const CostDistanceInstance& inst,
                  const SolverOptions& options) {
  CdSolver solver(options);
  StatusOr<SolveResult> r = solver.solve(inst);
  EXPECT_TRUE(r.ok()) << r.status().to_string();
  return r.ok() ? *std::move(r) : SolveResult{};
}

SolverOptions with_fc(const GridInstance& gi, bool astar = true) {
  SolverOptions o;
  o.future_cost = gi.fc.get();
  o.use_astar = astar;
  return o;
}

TEST(CostDistance, SingleSinkIsShortestPath) {
  const auto gi = make_grid_instance(7, 6, 6, 3, 1);
  const double w = gi.inst.sinks[0].weight;
  const auto r = solve(gi.inst, with_fc(gi));
  const auto sp = dijkstra(
      *gi.inst.graph, {gi.inst.root},
      [&](EdgeId e) { return gi.cost[e] + w * gi.delay[e]; },
      gi.inst.sinks[0].vertex);
  EXPECT_NEAR(r.eval.objective, sp.dist[gi.inst.sinks[0].vertex], 1e-6)
      << "a 1-sink instance must be solved by one shortest path";
}

TEST(CostDistance, SinkOnRootVertexCostsNothing) {
  GridInstance gi = make_grid_instance(8, 5, 5, 2, 1);
  gi.inst.sinks[0].vertex = gi.inst.root;
  const auto r = solve(gi.inst, with_fc(gi));
  EXPECT_DOUBLE_EQ(r.eval.objective, 0.0);
}

TEST(CostDistance, ParallelEdgesTradeCostForDelay) {
  // Two parallel edges between root and sink: cheap-slow vs pricey-fast.
  GraphBuilder b(2);
  b.add_edge(0, 1);  // e0: cheap, slow
  b.add_edge(0, 1);  // e1: expensive, fast
  const Graph g(b);
  std::vector<double> c{1.0, 10.0};
  std::vector<double> d{10.0, 1.0};
  CostDistanceInstance inst;
  inst.graph = &g;
  inst.cost = &c;
  inst.delay = &d;
  inst.root = 0;
  inst.sinks = {Terminal{1, 0.01}};
  SolverOptions opts;  // generic graph: no future costs
  auto r = solve(inst, opts);
  EXPECT_NEAR(r.eval.objective, 1.0 + 0.01 * 10.0, 1e-12)
      << "light weight must choose the cheap slow wire";

  inst.sinks[0].weight = 100.0;
  r = solve(inst, opts);
  EXPECT_NEAR(r.eval.objective, 10.0 + 100.0 * 1.0, 1e-12)
      << "heavy weight must choose the fast expensive wire";
}

TEST(CostDistance, DisconnectedGraphThrows) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const Graph g(b);
  std::vector<double> c{1.0, 1.0};
  std::vector<double> d{1.0, 1.0};
  CostDistanceInstance inst;
  inst.graph = &g;
  inst.cost = &c;
  inst.delay = &d;
  inst.root = 0;
  inst.sinks = {Terminal{3, 1.0}};
  EXPECT_THROW(solve_cost_distance(inst, SolverOptions{}, nullptr),
               ContractViolation);
}

class CostDistanceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CostDistanceProperty, ProducesValidConsistentTrees) {
  for (const double dbif : {0.0, 5.0}) {
    GridInstance gi =
        make_grid_instance(GetParam(), 9, 8, 4, 3 + GetParam() % 10, dbif);
    SolverOptions opts = with_fc(gi);
    opts.seed = GetParam();
    const auto r = solve(gi.inst, opts);
    r.tree.validate(*gi.inst.graph, gi.inst.sinks.size());
    // Objective must equal an independent re-evaluation.
    const TreeEvaluation re = evaluate_tree(r.tree, gi.inst);
    EXPECT_NEAR(re.objective, r.eval.objective, 1e-9);
    EXPECT_EQ(r.stats.iterations, gi.inst.sinks.size())
        << "every merge removes exactly one active sink";
    EXPECT_GT(r.eval.objective, 0.0);
  }
}

TEST_P(CostDistanceProperty, AllEnhancementCombinationsAreValid) {
  GridInstance gi = make_grid_instance(GetParam() * 77, 8, 8, 3, 5, 3.0);
  double best = 1e300, worst = 0.0;
  for (int mask = 0; mask < 32; ++mask) {
    SolverOptions o;
    o.future_cost = gi.fc.get();
    o.discount_components = (mask & 1) != 0;
    o.use_astar = (mask & 2) != 0;
    o.better_steiner_placement = (mask & 4) != 0;
    o.encourage_root = (mask & 8) != 0;
    o.seed = (mask & 16) != 0 ? 1 : 2;
    const auto r = solve(gi.inst, o);
    r.tree.validate(*gi.inst.graph, gi.inst.sinks.size());
    best = std::min(best, r.eval.objective);
    worst = std::max(worst, r.eval.objective);
  }
  EXPECT_GT(best, 0.0);
  EXPECT_LT(worst, 1e300);
  // The spread between configurations should be bounded (same instance).
  EXPECT_LT(worst / best, 3.0);
}

TEST_P(CostDistanceProperty, DeterministicGivenSeed) {
  GridInstance gi = make_grid_instance(GetParam() + 123, 8, 7, 3, 6, 2.0);
  SolverOptions o = with_fc(gi);
  o.seed = 99;
  const auto r1 = solve(gi.inst, o);
  const auto r2 = solve(gi.inst, o);
  EXPECT_DOUBLE_EQ(r1.eval.objective, r2.eval.objective);
  EXPECT_EQ(r1.tree.nodes.size(), r2.tree.nodes.size());
}

/// A router-shaped tiny instance: one net's OracleInstance (a box instance,
/// the production arc source) on a small RoutingGrid under uneven live
/// prices, its window a margin-1 box around the pins.
struct OracleFixture {
  std::unique_ptr<RoutingGrid> grid;
  std::unique_ptr<CongestionCosts> costs;
  std::unique_ptr<OracleInstance> oi;
};

OracleFixture make_oracle_instance(std::uint64_t seed, std::size_t num_sinks,
                                   double dbif) {
  OracleFixture f;
  f.grid = std::make_unique<RoutingGrid>(9, 8, make_default_layer_stack(3),
                                         ViaSpec{});
  f.costs = std::make_unique<CongestionCosts>(*f.grid);
  Rng rng(seed);
  const auto m = static_cast<std::uint64_t>(f.grid->graph().num_edges());
  for (int k = 0; k < 150; ++k) {
    f.costs->add_usage({static_cast<EdgeId>(rng.uniform(m))}, +1.0);
  }
  std::set<std::pair<std::int32_t, std::int32_t>> used;
  const auto pick = [&] {
    while (true) {
      const auto x = static_cast<std::int32_t>(rng.uniform(5)) + 2;
      const auto y = static_cast<std::int32_t>(rng.uniform(4)) + 2;
      if (used.insert({x, y}).second) return Point3{x, y, 0};
    }
  };
  Net net;
  net.source = pick();
  std::vector<double> weights;
  for (std::size_t s = 0; s < num_sinks; ++s) {
    net.sinks.push_back(SinkPin{pick(), 0.0});
    weights.push_back(std::exp(rng.uniform_double(-2.0, 2.0)));
  }
  OracleParams params;
  params.dbif = dbif;
  params.window_margin = 1;
  params.window_margin_frac = 0.0;
  f.oi = std::make_unique<OracleInstance>(*f.grid, *f.costs, net, weights,
                                          params);
  return f;
}

TEST_P(CostDistanceProperty, NearOptimalOnTinyInstances) {
  // Compare against the exact enumeration oracle under every solver
  // toggle: queue kind, A*, component discounts, Steiner placement and
  // root encouragement (32 combinations, each with its own seed). Theorem 6 guarantees O(log t) in expectation; on 2-4 sink
  // CSR instances with random congestion the practical algorithm lands
  // much closer — enforce a generous factor 2 there.
  //
  // The second input is a router oracle instance, solved on its box (the
  // production arc source) and enumerated exactly on its materialized CSR:
  // the box solve must equal the CSR solve bit for bit and never beat the
  // optimum. The factor-2 bound is not asserted on it: these windows are
  // delay-dominated (sink weights up to e^2 against unit-cost wires, a
  // 3.5x faster top layer), and CD does not hold it there — seed 7 at
  // dbif 0 lands at about 2.0x under every toggle (its tree never reaches
  // the fast layer, where L1/SL/PD embed within 1.05x), seed 5 at 3.15x
  // under one toggle. ROADMAP item 5 tracks that gap.
  const std::size_t num_sinks = 2 + GetParam() % 3;
  const auto options = [&](const FutureCostOracle* fc, int mask) {
    SolverOptions o;
    o.future_cost = fc;
    o.use_astar = (mask & 1) != 0;
    o.queue = (mask & 2) != 0 ? QueueKind::kSingleLazy : QueueKind::kTwoLevel;
    o.discount_components = (mask & 4) != 0;
    o.better_steiner_placement = (mask & 8) != 0;
    o.encourage_root = (mask & 16) != 0;
    o.seed = GetParam() * 64 + static_cast<std::uint64_t>(mask);
    return o;
  };
  for (const double dbif : {0.0, 4.0}) {
    SCOPED_TRACE(testing::Message() << "dbif " << dbif);
    GridInstance gi =
        make_grid_instance(GetParam() * 1313, 6, 6, 3, num_sinks, dbif);
    const ExactResult exact = solve_exact(gi.inst);
    const OracleFixture f =
        make_oracle_instance(GetParam() * 2029, num_sinks, dbif);
    ASSERT_NE(f.oi->instance().box, nullptr);
    const MaterializedInstance csr(*f.oi);
    const ExactResult oracle_exact = solve_exact(csr.instance());
    for (int mask = 0; mask < 32; ++mask) {
      SCOPED_TRACE(testing::Message() << "toggle mask " << mask);
      const auto r = solve(gi.inst, options(gi.fc.get(), mask));
      EXPECT_GE(r.eval.objective, exact.eval.objective - 1e-6)
          << "nothing beats the exact optimum";
      EXPECT_LE(r.eval.objective, 2.0 * exact.eval.objective)
          << "approximation far above the expected practical quality";

      const SolverOptions o = options(&f.oi->future_cost(), mask);
      const auto on_box = solve(f.oi->instance(), o);
      const auto on_csr = solve(csr.instance(), o);
      EXPECT_EQ(on_box.tree.all_edges(), on_csr.tree.all_edges());
      EXPECT_EQ(on_box.eval.objective, on_csr.eval.objective);
      EXPECT_GE(on_box.eval.objective, oracle_exact.eval.objective - 1e-6)
          << "nothing beats the exact optimum (oracle instance)";
    }
  }
}

TEST_P(CostDistanceProperty, ZeroWeightsReduceToPureCost) {
  GridInstance gi = make_grid_instance(GetParam() + 5000, 7, 7, 3, 5);
  for (Terminal& t : gi.inst.sinks) t.weight = 0.0;
  const auto r = solve(gi.inst, with_fc(gi));
  r.tree.validate(*gi.inst.graph, gi.inst.sinks.size());
  EXPECT_DOUBLE_EQ(r.eval.weighted_delay, 0.0);
  EXPECT_DOUBLE_EQ(r.eval.objective, r.eval.connection_cost);
}

TEST_P(CostDistanceProperty, PenaltiesOnlyIncreaseTreeCost) {
  GridInstance gi = make_grid_instance(GetParam() + 31, 8, 8, 3, 6, 0.0);
  const auto r = solve(gi.inst, with_fc(gi));
  // Evaluate the same tree under a dbif > 0 instance: objective must rise
  // (or stay, if the tree is a path) — penalties are non-negative.
  CostDistanceInstance with_penalty = gi.inst;
  with_penalty.dbif = 6.0;
  const TreeEvaluation e0 = evaluate_tree(r.tree, gi.inst);
  const TreeEvaluation e1 = evaluate_tree(r.tree, with_penalty);
  EXPECT_GE(e1.objective, e0.objective - 1e-9);
  EXPECT_GE(e1.total_delay_penalty, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CostDistanceProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST_P(CostDistanceProperty, LazySingleHeapMatchesTwoLevel) {
  // The queue organization is a performance choice (Section III-B); both
  // must produce identical trees given the same seed.
  GridInstance gi = make_grid_instance(GetParam() * 97, 9, 9, 3, 7, 2.0);
  SolverOptions two = with_fc(gi);
  two.seed = 3;
  SolverOptions lazy = two;
  lazy.queue = QueueKind::kSingleLazy;
  const auto a = solve(gi.inst, two);
  const auto b = solve(gi.inst, lazy);
  EXPECT_DOUBLE_EQ(a.eval.objective, b.eval.objective);
  EXPECT_EQ(a.tree.nodes.size(), b.tree.nodes.size());
}

TEST_P(CostDistanceProperty, PooledStateIsInvisibleAcrossQueuesAndSeeds) {
  // The SearchStatePool (epoch-versioned recycled label arenas) is a pure
  // performance mechanism: a session whose pool already holds every state
  // of an earlier solve must reproduce a fresh session, and the sparse
  // index fallback must too, for every queue organization and seed, down to
  // the exact tree edges and evaluation. A stale slot surviving an epoch
  // reset would show up here as a diverging tree.
  GridInstance gi = make_grid_instance(GetParam() * 271, 9, 8, 3,
                                       4 + GetParam() % 8, 2.0);
  for (const QueueKind queue : {QueueKind::kTwoLevel, QueueKind::kSingleLazy}) {
    SolverOptions pooled = with_fc(gi);
    pooled.seed = GetParam();
    pooled.queue = queue;
    SolverOptions sparse = pooled;
    sparse.dense_state_budget_bytes = 0;  // force the sparse index fallback
    const auto a = solve(gi.inst, pooled);  // fresh session
    CdSolver warm(pooled);
    ASSERT_TRUE(warm.solve(gi.inst).ok());
    const StatusOr<SolveResult> c = warm.solve(gi.inst);  // recycled states
    ASSERT_TRUE(c.ok());
    const auto d = solve(gi.inst, sparse);
    EXPECT_DOUBLE_EQ(a.eval.objective, c->eval.objective);
    EXPECT_DOUBLE_EQ(a.eval.weighted_delay, c->eval.weighted_delay);
    EXPECT_EQ(a.tree.all_edges(), c->tree.all_edges());
    EXPECT_EQ(a.tree.all_edges(), d.tree.all_edges());
    EXPECT_EQ(a.stats.labels_settled, c->stats.labels_settled);
    EXPECT_EQ(a.stats.labels_relaxed, c->stats.labels_relaxed);
    EXPECT_EQ(a.stats.labels_settled, d.stats.labels_settled);
  }
}

/// Exact equality of everything a solve reports: tree, evaluation, stats.
bool identical(const SolveResult& a, const SolveResult& b) {
  if (a.tree.nodes.size() != b.tree.nodes.size()) return false;
  for (std::size_t i = 0; i < a.tree.nodes.size(); ++i) {
    const SteinerTree::Node& x = a.tree.nodes[i];
    const SteinerTree::Node& y = b.tree.nodes[i];
    if (x.graph_vertex != y.graph_vertex || x.parent != y.parent ||
        x.sink_index != y.sink_index || x.kind != y.kind ||
        x.up_path != y.up_path) {
      return false;
    }
  }
  return a.tree.children == b.tree.children &&
         a.eval.connection_cost == b.eval.connection_cost &&
         a.eval.weighted_delay == b.eval.weighted_delay &&
         a.eval.objective == b.eval.objective &&
         a.eval.total_delay_penalty == b.eval.total_delay_penalty &&
         a.eval.sink_delays == b.eval.sink_delays &&
         a.eval.node_lambda == b.eval.node_lambda &&
         a.eval.num_graph_edges == b.eval.num_graph_edges &&
         a.stats.iterations == b.stats.iterations &&
         a.stats.labels_settled == b.stats.labels_settled &&
         a.stats.labels_relaxed == b.stats.labels_relaxed &&
         a.stats.completions_popped == b.stats.completions_popped &&
         a.stats.completions_stale == b.stats.completions_stale;
}

TEST(CostDistance, ScratchReusedAcrossGraphSizesIsBitIdentical) {
  // Dense search slots only grow and are invalidated by epoch, so a
  // recycled scratch carries stamps and memoized bounds from solves over
  // other graph sizes. None may leak into a later solve: each solve through
  // one reused scratch must equal a solve through a fresh scratch, exactly,
  // while the vertex count goes large -> small -> large, dense and sparse
  // solves interleave, and the merge generation crosses its 0x8000
  // drop_all fence.
  std::vector<GridInstance> insts;
  insts.reserve(4);
  const auto add = [&](GridInstance gi) {
    insts.push_back(std::move(gi));
    // The instance points at its own cost/delay vectors: re-aim the
    // pointers at the moved-in copies.
    insts.back().inst.cost = &insts.back().cost;
    insts.back().inst.delay = &insts.back().delay;
  };
  add(make_grid_instance(31, 14, 12, 4, 10, 2.0));  // large
  add(make_grid_instance(32, 5, 4, 2, 3, 2.0));     // small
  add(make_grid_instance(33, 16, 15, 4, 14, 2.0));  // largest
  add(make_grid_instance(34, 3, 3, 2, 1, 2.0));     // tiny
  constexpr std::size_t kTiny = 3;
  const auto options = [&](std::size_t k, bool sparse) {
    SolverOptions o = with_fc(insts[k]);
    o.seed = 7 + k;
    if (sparse) o.dense_state_budget_bytes = 0;
    return o;
  };
  // want[k][sparse]: each from its own fresh scratch.
  std::vector<std::array<SolveResult, 2>> want(insts.size());
  for (std::size_t k = 0; k < insts.size(); ++k) {
    for (const bool sparse : {false, true}) {
      SolverScratch fresh;
      want[k][sparse] =
          solve_cost_distance(insts[k].inst, options(k, sparse), &fresh);
    }
  }

  SolverScratch reused;
  std::size_t solves = 0;
  std::size_t mismatches = 0;
  const auto check = [&](std::size_t k, bool sparse) {
    const SolveResult got =
        solve_cost_distance(insts[k].inst, options(k, sparse), &reused);
    if (!identical(got, want[k][sparse])) {
      ADD_FAILURE() << "solve " << solves << " (instance " << k
                    << (sparse ? ", sparse" : ", dense")
                    << ") differs from a fresh-scratch solve";
      ++mismatches;
    }
    ++solves;
  };
  // Seeded size walk: large, small, larger, tiny, and back up, with about
  // a quarter of the solves sparse.
  Rng rng(2024);
  const auto size_walk = [&] {
    for (const std::size_t k : {0, 1, 2, 3, 1, 0, 3, 2, 1, 2}) {
      check(k, rng.uniform(4) == 0);
    }
  };
  size_walk();
  // A one-sink solve advances the merge generation twice (setup + merge),
  // so this many tiny solves push it past 0x8000 at least once; the size
  // walk recurs on both sides of the fence.
  const std::size_t fence_solves = 0x8000 / 2 + 64;
  for (std::size_t i = 0; i < fence_solves && mismatches < 5; ++i) {
    check(kTiny, false);
    if (i % 4096 == 0) size_walk();
  }
  size_walk();
  EXPECT_EQ(mismatches, 0u);
}

TEST(CostDistance, ManySinksLargeInstance) {
  // Smoke test at a size where all machinery (two-level heap, discounting,
  // A*, placement) is exercised hard.
  GridInstance gi = make_grid_instance(4242, 24, 24, 5, 48, 2.5);
  const auto r = solve(gi.inst, with_fc(gi));
  r.tree.validate(*gi.inst.graph, gi.inst.sinks.size());
  EXPECT_EQ(r.stats.iterations, 48u);
  EXPECT_GT(r.stats.labels_settled, 48u);
}

TEST(CostDistance, DuplicateSinkPositions) {
  GridInstance gi = make_grid_instance(9, 6, 6, 3, 4);
  // Force two sinks onto the same vertex and one onto the root.
  gi.inst.sinks[1].vertex = gi.inst.sinks[0].vertex;
  gi.inst.sinks[2].vertex = gi.inst.root;
  const auto r = solve(gi.inst, with_fc(gi));
  r.tree.validate(*gi.inst.graph, gi.inst.sinks.size());
}

TEST(CostDistance, EtaExtremesRespected) {
  // eta = 0: the heavy branch can take a zero share of the penalty;
  // eta = 0.5: the split is forced to be even. The evaluator's total
  // penalty must shrink monotonically as eta decreases.
  GridInstance gi = make_grid_instance(777, 8, 8, 3, 6, 5.0, 0.5);
  const auto half = solve(gi.inst, with_fc(gi));
  double prev = evaluate_tree(half.tree, gi.inst).total_delay_penalty;
  for (const double eta : {0.3, 0.1, 0.0}) {
    CostDistanceInstance relaxed = gi.inst;
    relaxed.eta = eta;
    const double pen = evaluate_tree(half.tree, relaxed).total_delay_penalty;
    EXPECT_LE(pen, prev + 1e-9) << "more split freedom cannot cost more";
    prev = pen;
  }
}

TEST(CostDistance, RandomPlacementVariesAcrossSeeds) {
  // With III-D off, line 7 picks the Steiner vertex position randomly in
  // proportion to the delay weights; over seeds the produced trees must not
  // all coincide (while each seed stays deterministic).
  GridInstance gi = make_grid_instance(31337, 10, 10, 3, 8, 0.0);
  SolverOptions o = with_fc(gi);
  o.better_steiner_placement = false;
  std::set<long long> distinct;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    o.seed = seed;
    const auto r = solve(gi.inst, o);
    distinct.insert(
        static_cast<long long>(r.eval.objective * 1e6));
  }
  EXPECT_GT(distinct.size(), 1u)
      << "randomized Steiner placement should produce varied trees";
}

TEST(CostDistance, BeatsEmbeddedBaselineUnderPenalties) {
  // The Table II property: with bifurcation penalties, the cost-distance
  // algorithm should beat the optimally embedded length-driven topology
  // (the "L1" baseline) in aggregate over an instance ensemble.
  double cd_sum = 0.0, l1_sum = 0.0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    GridInstance gi = make_grid_instance(seed * 919, 9, 9, 3, 8, 4.0);
    SolverOptions o = with_fc(gi);
    cd_sum += solve(gi.inst, o).eval.objective;

    std::vector<PlaneTerminal> plane;
    for (const Terminal& t : gi.inst.sinks) {
      plane.push_back(PlaneTerminal{gi.grid->position(t.vertex).xy(),
                                    t.weight, 0.0});
    }
    const PlaneTopology topo =
        rsmt_topology(gi.grid->position(gi.inst.root).xy(), plane);
    l1_sum += embed_topology(topo, gi.inst).eval.objective;
  }
  EXPECT_LT(cd_sum, l1_sum)
      << "cost-distance should beat the embedded L1 topology with dbif > 0";
}

TEST(CostDistance, HeavySinksSitOnFasterPaths) {
  // With a strongly asymmetric weight, the heavy sink's delay should not
  // exceed the light sink's when both are geometrically symmetric.
  RoutingGrid grid(11, 3, make_default_layer_stack(4), ViaSpec{});
  FutureCost fc(grid);
  std::vector<double> cost = grid.base_costs();
  std::vector<double> delay = grid.edge_delays();
  CostDistanceInstance inst;
  inst.graph = &grid.graph();
  inst.cost = &cost;
  inst.delay = &delay;
  inst.root = grid.vertex_at(5, 1, 0);
  inst.sinks = {Terminal{grid.vertex_at(0, 1, 0), 10.0},
                Terminal{grid.vertex_at(10, 1, 0), 0.01}};
  SolverOptions o;
  o.future_cost = &fc;
  const auto r = solve(inst, o);
  EXPECT_LE(r.eval.sink_delays[0], r.eval.sink_delays[1] + 1e-9);
}

}  // namespace
}  // namespace cdst
