// Cross-module integration tests: the full pipeline from chip generation
// through routing to per-instance oracle comparison, window/grid consistency
// of solved trees, and serialization of router-sampled instances.

#include <gtest/gtest.h>

#include <sstream>

#include "api/cd_solver.h"
#include "api/router.h"
#include "embed/enumerate.h"
#include "io/instance_io.h"
#include "route/netlist_gen.h"
#include "route/router.h"
#include "route/steiner_oracle.h"

namespace cdst {
namespace {

ChipConfig small_chip() {
  ChipConfig c;
  c.name = "integration";
  c.num_nets = 120;
  c.num_layers = 5;
  c.nx = c.ny = 24;
  c.capacity = 6.0;
  c.rat_tightness = 1.3;
  c.seed = 99;
  return c;
}

TEST(Integration, RouterInstancesSolveConsistentlyAcrossMethods) {
  const ChipConfig chip = small_chip();
  const RoutingGrid grid = make_chip_grid(chip);
  const Netlist netlist = generate_netlist(chip, grid);

  RouterOptions ropts;
  ropts.method = SteinerMethod::kCD;
  ropts.oracle.dbif = 1.5;
  Router session(grid, netlist, ropts);
  ASSERT_TRUE(session.run(2).ok());
  const RouterResult warm = std::move(session).take_result();

  CongestionCosts costs(grid, ropts.congestion);
  for (const auto& route : warm.routes) costs.add_usage(route, +1.0);

  OracleParams params = ropts.oracle;
  std::size_t flat = 0;
  std::size_t tested = 0;
  for (std::size_t i = 0; i < netlist.nets.size() && tested < 12; ++i) {
    const Net& net = netlist.nets[i];
    const std::size_t k = net.sinks.size();
    flat += k;
    if (k < 3) continue;
    ++tested;
    costs.add_usage(warm.routes[i], -1.0);
    const std::vector<double> weights(
        warm.sink_weights.begin() + static_cast<std::ptrdiff_t>(flat - k),
        warm.sink_weights.begin() + static_cast<std::ptrdiff_t>(flat));
    const OracleInstance oi(grid, costs, net, weights, params);

    double best = 0.0;
    for (const SteinerMethod m : all_methods()) {
      const OracleOutcome out = run_method(oi, m, params);
      EXPECT_GT(out.eval.objective, 0.0) << method_name(m);
      // Every returned edge must be a real grid edge.
      for (const EdgeId e : out.grid_edges) {
        EXPECT_LT(e, grid.graph().num_edges());
      }
      if (best == 0.0 || out.eval.objective < best) {
        best = out.eval.objective;
      }
    }
    // On tiny instances the exact oracle must lower-bound all methods.
    if (k <= 4) {
      const ExactResult exact =
          solve_exact(MaterializedInstance(oi).instance());
      EXPECT_LE(exact.eval.objective, best + 1e-6);
    }
    costs.add_usage(warm.routes[i], +1.0);
  }
  EXPECT_GE(tested, 5u) << "corpus should contain multi-sink nets";
}

TEST(Integration, WindowSolveMatchesFullGridEvaluation) {
  // Solve a net on its window, map the tree to grid edges, and verify that
  // the objective recomputed from grid-level costs/delays matches.
  const ChipConfig chip = small_chip();
  const RoutingGrid grid = make_chip_grid(chip);
  const Netlist netlist = generate_netlist(chip, grid);
  CongestionCosts costs(grid);

  const Net* net = nullptr;
  for (const Net& n : netlist.nets) {
    if (n.sinks.size() >= 5) {
      net = &n;
      break;
    }
  }
  ASSERT_NE(net, nullptr);
  const std::vector<double> weights(net->sinks.size(), 0.3);
  OracleParams params;
  params.dbif = 0.0;  // penalties depend on tree structure, not edges
  const OracleInstance oi(grid, costs, *net, weights, params);

  SolverOptions so;
  WindowFutureCost fc(oi.window());
  so.future_cost = &fc;
  CdSolver solver(so);
  const StatusOr<SolveResult> solved = solver.solve(oi.instance());
  ASSERT_TRUE(solved.ok()) << solved.status().to_string();
  const SolveResult& r = *solved;

  // Window-level connection cost == grid-level cost of the mapped edges.
  double grid_cost = 0.0;
  for (const EdgeId we : r.tree.all_edges()) {
    grid_cost += costs.edge_cost(oi.window().to_grid_edge(we));
  }
  EXPECT_NEAR(grid_cost, r.eval.connection_cost, 1e-6);

  // Window delays (from the class table) and prices (from the slot plane)
  // equal the grid's edge by edge, exactly.
  for (const EdgeId we : r.tree.all_edges()) {
    const EdgeId ge = oi.window().to_grid_edge(we);
    EXPECT_EQ(oi.instance().edge_delay(we), grid.edge_delays()[ge]);
    EXPECT_EQ(oi.instance().edge_cost(we), costs.edge_cost(ge));
  }
}

TEST(Integration, RouterInstanceSurvivesSerializationRoundTrip) {
  const ChipConfig chip = small_chip();
  const RoutingGrid grid = make_chip_grid(chip);
  const Netlist netlist = generate_netlist(chip, grid);
  CongestionCosts costs(grid);
  const Net& net = netlist.nets[3];
  const std::vector<double> weights(net.sinks.size(), 0.7);
  OracleParams params;
  params.dbif = 2.0;
  const OracleInstance oi(grid, costs, net, weights, params);

  std::stringstream ss;
  write_instance(ss, MaterializedInstance(oi).instance());
  const OwnedInstance loaded = read_instance(ss);

  SolverOptions so;  // generic-graph mode on both sides for comparability
  so.seed = 17;
  CdSolver solver(so);
  const StatusOr<SolveResult> a = solver.solve(oi.instance());
  const StatusOr<SolveResult> b = solver.solve(loaded.instance);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a->eval.objective, b->eval.objective);
}

TEST(Integration, SingleGcellWindowRoutesThroughViaStack) {
  // A net whose pins share one gcell: the window degenerates to a via
  // column; the solver must still produce a valid (possibly zero-length)
  // tree.
  const RoutingGrid grid(12, 12, make_default_layer_stack(4), ViaSpec{});
  CongestionCosts costs(grid);
  Net net;
  net.source = Point3{5, 5, 0};
  net.sinks = {SinkPin{Point3{5, 5, 0}, 100.0},
               SinkPin{Point3{5, 5, 0}, 100.0}};
  OracleParams params;
  params.window_margin = 0;
  params.window_margin_frac = 0.0;
  const std::vector<double> sink_weights{1.0, 2.0};
  const OracleInstance oi(grid, costs, net, sink_weights, params);
  EXPECT_EQ(oi.window().box_graph().num_vertices(), 4u);  // 1 gcell x 4 layers
  const OracleOutcome out = run_method(oi, SteinerMethod::kCD, params);
  EXPECT_DOUBLE_EQ(out.eval.objective, 0.0);
}

TEST(Integration, MethodsAgreeOnTwoPinNets) {
  // For 2-terminal nets every method reduces to one weighted shortest path,
  // so all four must return identical objectives.
  const ChipConfig chip = small_chip();
  const RoutingGrid grid = make_chip_grid(chip);
  const Netlist netlist = generate_netlist(chip, grid);
  CongestionCosts costs(grid);
  OracleParams params;
  std::size_t tested = 0;
  for (const Net& net : netlist.nets) {
    if (net.sinks.size() != 1 || tested >= 10) continue;
    if (net.sinks[0].pos == net.source) continue;
    ++tested;
    const std::vector<double> weights{0.5};
    const OracleInstance oi(grid, costs, net, weights, params);
    double first = -1.0;
    for (const SteinerMethod m : all_methods()) {
      const double obj = run_method(oi, m, params).eval.objective;
      if (first < 0.0) {
        first = obj;
      } else {
        EXPECT_NEAR(obj, first, 1e-6) << method_name(m);
      }
    }
  }
  EXPECT_GE(tested, 5u);
}

}  // namespace
}  // namespace cdst
