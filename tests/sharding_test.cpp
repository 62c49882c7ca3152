// Tests for the structure-of-arrays arc cost plane and the spatially
// sharded router rounds: bit-identity of the SoA Dijkstra relaxation
// against the scalar per-edge path, bit-identity of sharded rounds across
// thread and shard counts, the shard-assignment partition property, the
// shared dense-state budget pool, and cancellation inside the embedded
// oracles.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "api/cdst.h"
#include "graph/arc_cost_view.h"
#include "graph/dijkstra.h"
#include "grid/future_cost.h"
#include "route/netlist_gen.h"
#include "route/sharding.h"
#include "stress.h"
#include "test_instances.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cdst {
namespace {

ChipConfig tiny_chip() {
  ChipConfig c;
  c.name = "tiny";
  c.num_nets = 60;
  c.num_layers = 4;
  c.nx = c.ny = 20;
  c.capacity = 10.0;
  c.seed = 7;
  return c;
}

// ---------------------------------------------------------------------------
// ArcCostView / SoA relaxation bit-identity.

TEST(ArcCostView, AlignsWithGraphArcPlane) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(0, 3);
  const Graph g(b);
  const std::vector<double> cost{1.0, 2.0, 3.0, 4.0};
  const ArcCostView view(g, cost);
  ASSERT_EQ(view.arc_cost().size(), g.num_arcs());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto arcs = g.arcs(v);
    const std::uint32_t lo = g.arc_begin(v);
    for (std::size_t k = 0; k < arcs.size(); ++k) {
      EXPECT_EQ(g.arc_heads()[lo + k], arcs[k].to);
      EXPECT_EQ(g.arc_edges()[lo + k], arcs[k].edge);
      EXPECT_EQ(view.arc_cost()[lo + k], cost[arcs[k].edge]);
    }
  }
}

TEST(ArcCostView, DijkstraBitIdenticalToPerEdgePath) {
  // A random multigraph: the blocked SoA relaxation must produce exactly
  // the labels and parents of the classic per-edge loop, for a cost plane
  // and for a weighted cost + delay plane.
  Rng rng(11);
  GraphBuilder b(120);
  std::vector<double> cost, delay;
  for (int e = 0; e < 500; ++e) {
    const auto u = static_cast<VertexId>(rng.uniform(120));
    auto v = static_cast<VertexId>(rng.uniform(120));
    if (u == v) v = (v + 1) % 120;
    b.add_edge(u, v);
    cost.push_back(0.1 + rng.uniform_double());
    delay.push_back(0.05 + 0.5 * rng.uniform_double());
  }
  const Graph g(b);
  const ArcCostView view(g, cost);

  const DijkstraResult scalar = dijkstra(g, {0, 17}, ArrayLength{cost});
  const DijkstraResult soa = dijkstra(g, {0, 17}, ArrayLength(view));
  ASSERT_EQ(scalar.dist, soa.dist);
  ASSERT_EQ(scalar.parent_edge, soa.parent_edge);
  ASSERT_EQ(scalar.parent, soa.parent);

  // The weighted metric c + 2.5 d as one length plane.
  std::vector<double> metric(cost.size());
  for (std::size_t e = 0; e < cost.size(); ++e) {
    metric[e] = cost[e] + 2.5 * delay[e];
  }
  const ArcCostView metric_view(g, metric);
  const DijkstraResult scalar_cd = dijkstra(g, {3}, ArrayLength{metric});
  const DijkstraResult soa_cd = dijkstra(g, {3}, ArrayLength(metric_view));
  ASSERT_EQ(scalar_cd.dist, soa_cd.dist);
  ASSERT_EQ(scalar_cd.parent_edge, soa_cd.parent_edge);
}

// ---------------------------------------------------------------------------
// Shard assignment.

TEST(Sharding, AssignmentIsPartitionOfNetlist) {
  const ChipConfig c = tiny_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  for (const int shards : {1, 3, 4, 16}) {
    const ShardMap map = assign_nets_to_shards(grid, nl, shards);
    EXPECT_EQ(map.tiles.num_shards(), shards);
    EXPECT_EQ(map.nets.size(), static_cast<std::size_t>(shards));
    // Every net appears exactly once, ascending within its shard.
    std::vector<int> seen(nl.nets.size(), 0);
    for (const auto& shard : map.nets) {
      for (std::size_t k = 0; k < shard.size(); ++k) {
        ASSERT_LT(shard[k], nl.nets.size());
        ++seen[shard[k]];
        if (k > 0) {
          EXPECT_LT(shard[k - 1], shard[k]);
        }
      }
    }
    for (std::size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i], 1) << "net " << i << " at " << shards << " shards";
    }
    EXPECT_EQ(map.total_nets(), nl.nets.size());
  }
}

TEST(Sharding, TileLatticeMatchesGridAspect) {
  const RoutingGrid wide(64, 16, make_default_layer_stack(3), ViaSpec{});
  const ShardGrid sg = make_shard_grid(wide, 4);
  // 64x16 with 4 shards: 4x1 tiles (16x16 gcells each) is the square-most.
  EXPECT_EQ(sg.tiles_x, 4);
  EXPECT_EQ(sg.tiles_y, 1);
  // Clamping: points at (or past) the extent stay in the lattice.
  EXPECT_EQ(sg.shard_of(Point2{0, 0}), 0);
  EXPECT_EQ(sg.shard_of(Point2{63, 15}), 3);
  EXPECT_EQ(sg.shard_of(Point2{64, 16}), 3);
}

// ---------------------------------------------------------------------------
// Sharded rounds: bit-identity across thread and shard counts.

RouterResult route_sharded(const RoutingGrid& grid, const Netlist& nl,
                           int threads, int shards, int rounds) {
  RouterOptions opts;
  opts.method = SteinerMethod::kCD;
  opts.threads = threads;
  opts.shards = shards;
  Router session(grid, nl, opts);
  const Status st = session.run(rounds);
  EXPECT_TRUE(st.ok()) << st.to_string();
  return std::move(session).take_result();
}

TEST(ShardedRouter, BitIdenticalAcrossThreadShardAndStealingCounts) {
  const ChipConfig c = tiny_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);

  // Reference: one lane, one shard. The other cells split the round into
  // other spans and run them on more lanes, which only reorders execution:
  // every cell must reproduce the reference.
  const CongestionParams congestion = RouterOptions{}.congestion;
  const RouterResult ref = route_sharded(grid, nl, 1, 1, 2);
  ASSERT_EQ(ref.routes.size(), nl.nets.size());
  EXPECT_GT(ref.wires.wirelength_gcells, 0.0);
  testutil::expect_router_invariants(grid, nl, congestion, ref);

  for (const int threads : {1, 2, 4}) {
    for (const int shards : {1, 4, 16}) {
      if (threads == 1 && shards == 1) continue;
      const RouterResult got = route_sharded(grid, nl, threads, shards, 2);
      ASSERT_EQ(got.routes.size(), ref.routes.size());
      for (std::size_t i = 0; i < ref.routes.size(); ++i) {
        EXPECT_EQ(got.routes[i], ref.routes[i])
            << "net " << i << " at threads=" << threads
            << " shards=" << shards;
      }
      ASSERT_EQ(got.sink_delays.size(), ref.sink_delays.size());
      for (std::size_t s = 0; s < ref.sink_delays.size(); ++s) {
        EXPECT_EQ(got.sink_delays[s], ref.sink_delays[s]) << "sink " << s;
      }
      EXPECT_EQ(got.wires.num_vias, ref.wires.num_vias);
      testutil::expect_router_invariants(grid, nl, congestion, got);
    }
  }
}

TEST(ShardedRouter, LastSpanEmitsOneEventPerShardWithMonotonicProgress) {
  // Whichever lane completes a shard's last span owns its completion
  // event: exactly one event per shard per round, with nets_done monotonic
  // to the netlist total.
  struct CountingSink final : EventSink {
    std::vector<int> events_per_shard;
    std::size_t last_nets_done{0};
    std::size_t nets_total{0};
    bool monotonic{true};
    void on_router_shard(const RouterShardEvent& event) override {
      if (events_per_shard.size() <
          static_cast<std::size_t>(event.shards)) {
        events_per_shard.resize(static_cast<std::size_t>(event.shards), 0);
      }
      ++events_per_shard[static_cast<std::size_t>(event.shard)];
      monotonic = monotonic && event.nets_done > last_nets_done;
      last_nets_done = event.nets_done;
      nets_total = event.nets_total;
    }
  };

  const ChipConfig c = tiny_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  RouterOptions opts;
  opts.method = SteinerMethod::kCD;
  opts.threads = 4;
  opts.shards = 8;

  CountingSink sink;
  RunControl control;
  control.events = &sink;
  Router session(grid, nl, opts);
  ASSERT_TRUE(session.run(1, control).ok());

  ASSERT_EQ(sink.events_per_shard.size(), 8u);
  for (std::size_t sh = 0; sh < sink.events_per_shard.size(); ++sh) {
    EXPECT_EQ(sink.events_per_shard[sh], 1) << "shard " << sh;
  }
  EXPECT_TRUE(sink.monotonic);
  EXPECT_EQ(sink.last_nets_done, sink.nets_total);
  EXPECT_EQ(sink.nets_total, nl.nets.size());
}

TEST(ShardedRouter, SplitRunsMatchOneRun) {
  // Sharded rounds stay resumable: run(1); run(1) == run(2), like batched.
  const ChipConfig c = tiny_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  RouterOptions opts;
  opts.method = SteinerMethod::kCD;
  opts.shards = 4;
  opts.threads = 2;

  Router one(grid, nl, opts);
  ASSERT_TRUE(one.run(2).ok());
  Router split(grid, nl, opts);
  ASSERT_TRUE(split.run(1).ok());
  ASSERT_TRUE(split.run(1).ok());

  const RouterResult a = std::move(one).take_result();
  const RouterResult b = std::move(split).take_result();
  ASSERT_EQ(a.routes.size(), b.routes.size());
  for (std::size_t i = 0; i < a.routes.size(); ++i) {
    EXPECT_EQ(a.routes[i], b.routes[i]) << "net " << i;
  }
  EXPECT_EQ(a.sink_delays, b.sink_delays);
}

TEST(ShardedRouter, CancelledRoundLeavesPreviousBoundaryIntact) {
  const ChipConfig c = tiny_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  RouterOptions opts;
  opts.method = SteinerMethod::kCD;
  opts.shards = 4;

  Router session(grid, nl, opts);
  ASSERT_TRUE(session.run(1).ok());
  const RouterResult before = session.result();

  CancelToken token;
  token.request_cancel();
  RunControl control;
  control.cancel = &token;
  const Status st = session.run(1, control);
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_EQ(session.rounds_completed(), 1);

  const RouterResult after = session.result();
  ASSERT_EQ(before.routes.size(), after.routes.size());
  for (std::size_t i = 0; i < before.routes.size(); ++i) {
    EXPECT_EQ(before.routes[i], after.routes[i]);
  }

  // The session resumes cleanly after the cancellation.
  token.reset();
  EXPECT_TRUE(session.run(1, control).ok());
  EXPECT_EQ(session.rounds_completed(), 2);
}

// ---------------------------------------------------------------------------
// Shared dense-state budget pool (one atomic pool across batch lanes).

TEST(SharedDenseBudget, TinyPoolFallsBackSparseWithIdenticalResults) {
  const RoutingGrid grid(20, 20, make_default_layer_stack(3), ViaSpec{});
  const FutureCost fc(grid);
  Rng rng(9);
  std::vector<double> cost(grid.graph().num_edges());
  for (std::size_t e = 0; e < cost.size(); ++e) {
    cost[e] = grid.base_costs()[e] * (1.0 + rng.uniform_double());
  }
  const std::vector<double>& delay = grid.edge_delays();
  CostDistanceInstance inst;
  inst.graph = &grid.graph();
  inst.cost = &cost;
  inst.delay = &delay;
  inst.root = grid.vertex_at(1, 1, 0);
  for (int s = 0; s < 8; ++s) {
    inst.sinks.push_back(
        Terminal{grid.vertex_at(static_cast<std::int32_t>(rng.uniform(20)),
                                static_cast<std::int32_t>(rng.uniform(20)), 0),
                 0.5});
  }

  ThreadPool pool(4);
  std::vector<CdSolver::Job> jobs(8);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    jobs[j].instance = &inst;
    jobs[j].seed = j + 1;
  }

  SolverOptions roomy;
  roomy.future_cost = &fc;
  CdSolver big(roomy, &pool);
  const auto a = big.solve_batch(std::span<const CdSolver::Job>(jobs));
  ASSERT_TRUE(a.ok());

  // A pool too small for even one dense state: every lane falls back to
  // sparse search state, results must not change by a bit.
  SolverOptions tiny = roomy;
  tiny.dense_state_budget_bytes = 1;
  CdSolver small(tiny, &pool);
  const auto b = small.solve_batch(std::span<const CdSolver::Job>(jobs));
  ASSERT_TRUE(b.ok());

  ASSERT_EQ(a->size(), b->size());
  for (std::size_t j = 0; j < a->size(); ++j) {
    EXPECT_EQ((*a)[j].tree.all_edges(), (*b)[j].tree.all_edges()) << j;
    EXPECT_EQ((*a)[j].eval.objective, (*b)[j].eval.objective) << j;
  }
}

TEST(SharedDenseBudget, ReservationsReturnToThePool) {
  DenseStateBudget budget(1000);
  EXPECT_TRUE(budget.try_reserve(600));
  EXPECT_FALSE(budget.try_reserve(600));
  EXPECT_TRUE(budget.try_reserve(400));
  EXPECT_EQ(budget.remaining_bytes(), 0);
  budget.release(600);
  budget.release(400);
  EXPECT_EQ(budget.remaining_bytes(), 1000);
}

TEST(SharedDenseBudget, ConcurrentReserveReleaseTracksExactPeak) {
  // Regression for the budget's memory-ordering contract: with relaxed
  // RMWs a monitoring thread could observe `remaining` drop without the
  // low-water update that drop implies, understating the peak; the
  // acq_rel/acquire pairs (and the atomic `initial_`) make the read-back
  // race-free. Hammer the pool from several threads, each holding at most
  // one unit-sized reservation, and check the invariants a race would
  // break: the pool refills to its full size, and the recorded peak is at
  // most threads * unit yet at least one unit (some reserve succeeded).
  constexpr std::int64_t kUnit = 64;
  constexpr int kThreads = 4;
  DenseStateBudget budget(kUnit * kThreads);
  const int iters = testutil::stress_iters(20000, 2000);
  std::atomic<std::int64_t> observed_peak{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < iters; ++i) {
        if (budget.try_reserve(kUnit)) {
          // Sample the peak while holding the reservation: the value must
          // already cover this thread's own outstanding unit.
          const std::int64_t peak = budget.peak_reserved_bytes();
          EXPECT_GE(peak, kUnit);
          std::int64_t seen = observed_peak.load(std::memory_order_relaxed);
          while (peak > seen && !observed_peak.compare_exchange_weak(
                                    seen, peak, std::memory_order_relaxed)) {
          }
          budget.release(kUnit);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(budget.remaining_bytes(), kUnit * kThreads);
  EXPECT_GE(observed_peak.load(), kUnit);
  EXPECT_LE(observed_peak.load(), kUnit * kThreads);
  EXPECT_LE(budget.peak_reserved_bytes(), kUnit * kThreads);
}

// ---------------------------------------------------------------------------
// Cancellation inside the embedded L1/SL/PD oracle paths.

TEST(EmbeddedOracleCancellation, PreCancelledTokenCancelsEveryMethod) {
  const ChipConfig c = tiny_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);

  CancelToken token;
  token.request_cancel();
  RunControl control;
  control.cancel = &token;

  for (const SteinerMethod m :
       {SteinerMethod::kL1, SteinerMethod::kSL, SteinerMethod::kPD}) {
    RouterOptions opts;
    opts.method = m;
    Router session(grid, nl, opts);
    const Status st = session.run(1, control);
    EXPECT_EQ(st.code(), StatusCode::kCancelled) << method_name(m);
    EXPECT_EQ(session.rounds_completed(), 0) << method_name(m);
    // Sharded rounds honor it the same way.
    RouterOptions sharded = opts;
    sharded.shards = 4;
    ASSERT_TRUE(session.set_options(sharded).ok());
    EXPECT_EQ(session.run(1, control).code(), StatusCode::kCancelled)
        << method_name(m);
  }
}

}  // namespace
}  // namespace cdst
