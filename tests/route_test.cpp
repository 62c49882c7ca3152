// Tests for the timing-constrained global router substrate: netlist
// generation, per-net oracles, metrics, and the Lagrangean routing loop.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "api/router.h"
#include "core/objective.h"
#include "route/metrics.h"
#include "route/netlist_gen.h"
#include "route/router.h"
#include "route/steiner_oracle.h"
#include "util/sparse_map.h"

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

/// Routes `rounds` Lagrangean rounds in a fresh Router session.
RouterResult route_rounds(const RoutingGrid& grid, const Netlist& nl,
                          const RouterOptions& opts, int rounds) {
  Router session(grid, nl, opts);
  const Status st = session.run(rounds);
  EXPECT_TRUE(st.ok()) << st.to_string();
  return std::move(session).take_result();
}

TEST(NetlistGen, PaperChipTableShape) {
  const auto chips = paper_chip_configs(0.01);
  ASSERT_EQ(chips.size(), 8u);
  EXPECT_EQ(chips[0].name, "c1");
  EXPECT_EQ(chips[7].name, "c8");
  // Layer counts straight from Table III.
  const int expected_layers[] = {8, 9, 7, 15, 9, 9, 15, 15};
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(chips[i].num_layers, expected_layers[i]);
  }
  // Scaled net counts keep the ordering of Table III.
  for (std::size_t i = 1; i < 8; ++i) {
    EXPECT_GE(chips[i].num_nets, chips[i - 1].num_nets * 99 / 100);
  }
}

TEST(NetlistGen, DeterministicAndInBounds) {
  const ChipConfig c = tiny_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist a = generate_netlist(c, grid);
  const Netlist b = generate_netlist(c, grid);
  ASSERT_EQ(a.nets.size(), c.num_nets);
  ASSERT_EQ(a.nets.size(), b.nets.size());
  for (std::size_t i = 0; i < a.nets.size(); ++i) {
    EXPECT_EQ(a.nets[i].source, b.nets[i].source);
    ASSERT_EQ(a.nets[i].sinks.size(), b.nets[i].sinks.size());
    EXPECT_GE(a.nets[i].sinks.size(), 1u);
    for (std::size_t s = 0; s < a.nets[i].sinks.size(); ++s) {
      const SinkPin& pin = a.nets[i].sinks[s];
      EXPECT_EQ(pin.pos, b.nets[i].sinks[s].pos);
      EXPECT_GE(pin.pos.x, 0);
      EXPECT_LT(pin.pos.x, c.nx);
      EXPECT_GE(pin.pos.y, 0);
      EXPECT_LT(pin.pos.y, c.ny);
      EXPECT_EQ(pin.pos.z, 0);
      EXPECT_GT(pin.rat, 0.0);
    }
  }
}

TEST(NetlistGen, SizeDistributionHasMultiSinkTail) {
  ChipConfig c = tiny_chip();
  c.num_nets = 4000;
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  std::size_t small = 0, large = 0;
  for (const Net& n : nl.nets) {
    if (n.sinks.size() <= 2) ++small;
    if (n.sinks.size() >= 15) ++large;
  }
  EXPECT_GT(small, nl.nets.size() / 2);
  EXPECT_GT(large, nl.nets.size() / 200);
  EXPECT_LT(large, nl.nets.size() / 5);
}

TEST(SteinerOracle, AllMethodsRouteAndCommitUsage) {
  const ChipConfig c = tiny_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  CongestionCosts costs(grid);

  // Pick a multi-sink net.
  const Net* net = nullptr;
  for (const Net& n : nl.nets) {
    if (n.sinks.size() >= 4) {
      net = &n;
      break;
    }
  }
  ASSERT_NE(net, nullptr);
  const std::vector<double> weights(net->sinks.size(), 0.01);

  OracleParams params;
  params.dbif = 2.0;
  for (const SteinerMethod m : all_methods()) {
    const OracleInstance oi(grid, costs, *net, weights, params);
    const OracleOutcome out = run_method(oi, m, params);
    EXPECT_FALSE(out.grid_edges.empty()) << method_name(m);
    EXPECT_EQ(out.eval.sink_delays.size(), net->sinks.size());
    for (const double d : out.eval.sink_delays) EXPECT_GE(d, 0.0);
    // Usage commit + rip-up must round-trip to zero.
    costs.add_usage(out.grid_edges, +1.0);
    costs.add_usage(out.grid_edges, -1.0);
  }
  for (ResourceId r = 0; r < costs.num_resources(); ++r) {
    EXPECT_DOUBLE_EQ(costs.usage(r), 0.0);
  }
}

TEST(SteinerOracle, InstanceMapsPinsIntoWindow) {
  const ChipConfig c = tiny_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  CongestionCosts costs(grid);
  const Net& net = nl.nets[0];
  const std::vector<double> weights(net.sinks.size(), 1.0);
  OracleParams params;
  const OracleInstance oi(grid, costs, net, weights, params);
  EXPECT_EQ(oi.instance().sinks.size(), net.sinks.size());
  EXPECT_EQ(oi.window().to_grid_vertex(oi.instance().root),
            grid.vertex_at(net.source));
  for (std::size_t s = 0; s < net.sinks.size(); ++s) {
    EXPECT_EQ(oi.window().to_grid_vertex(oi.instance().sinks[s].vertex),
              grid.vertex_at(net.sinks[s].pos));
  }
}

/// Field-by-field exact comparison of two oracle instances — box shape,
/// generated arcs, id maps and planes — down to the CD solve they produce.
void expect_same_instance(const OracleInstance& got,
                          const OracleInstance& want,
                          const OracleParams& params) {
  const RoutingWindow& gw = got.window();
  const RoutingWindow& ww = want.window();
  const BoxGraph& gb = gw.box_graph();
  const BoxGraph& wb = ww.box_graph();
  EXPECT_EQ(gw.box(), ww.box());
  ASSERT_EQ(gb.wx(), wb.wx());
  ASSERT_EQ(gb.wy(), wb.wy());
  ASSERT_EQ(gb.nz(), wb.nz());
  ASSERT_EQ(gb.num_vertices(), wb.num_vertices());
  ASSERT_EQ(gb.num_edges(), wb.num_edges());
  ASSERT_EQ(gb.max_degree(), wb.max_degree());
  std::vector<VertexId> gh(gb.max_degree()), wh(wb.max_degree());
  std::vector<EdgeId> ge(gb.max_degree()), we(wb.max_degree());
  std::vector<std::uint32_t> gs(gb.max_degree()), ws(wb.max_degree());
  std::vector<std::uint32_t> gc(gb.max_degree()), wc(wb.max_degree());
  for (VertexId v = 0; v < gb.num_vertices(); ++v) {
    const std::uint32_t gd =
        gb.arcs(v, gh.data(), ge.data(), gs.data(), gc.data());
    ASSERT_EQ(gd, wb.arcs(v, wh.data(), we.data(), ws.data(), wc.data()))
        << "vertex " << v;
    for (std::uint32_t k = 0; k < gd; ++k) {
      EXPECT_EQ(gh[k], wh[k]) << "vertex " << v << " arc " << k;
      EXPECT_EQ(ge[k], we[k]) << "vertex " << v << " arc " << k;
      EXPECT_EQ(gs[k], ws[k]) << "vertex " << v << " arc " << k;
      EXPECT_EQ(gc[k], wc[k]) << "vertex " << v << " arc " << k;
    }
    EXPECT_EQ(gw.to_grid_vertex(v), ww.to_grid_vertex(v)) << "vertex " << v;
  }
  for (EdgeId e = 0; e < gb.num_edges(); ++e) {
    EXPECT_EQ(gb.tail(e), wb.tail(e)) << "edge " << e;
    EXPECT_EQ(gb.head(e), wb.head(e)) << "edge " << e;
    EXPECT_EQ(gw.to_grid_edge(e), ww.to_grid_edge(e)) << "edge " << e;
  }
  const BoxPrices gp = gw.prices();
  const BoxPrices wp = ww.prices();
  EXPECT_TRUE(std::ranges::equal(gp.price, wp.price));
  EXPECT_TRUE(std::ranges::equal(gp.unit, wp.unit));
  EXPECT_TRUE(std::ranges::equal(gp.delay, wp.delay));

  const CostDistanceInstance& gi = got.instance();
  const CostDistanceInstance& wi = want.instance();
  EXPECT_EQ(gi.box, &gb);
  EXPECT_EQ(gi.graph, nullptr);
  EXPECT_EQ(gi.cost, nullptr);
  EXPECT_EQ(gi.delay, nullptr);
  EXPECT_EQ(gi.prices.price.data(), gp.price.data());
  EXPECT_EQ(gi.prices.price.size(), gp.price.size());
  EXPECT_EQ(gi.prices.unit.data(), gp.unit.data());
  EXPECT_EQ(gi.prices.delay.data(), gp.delay.data());
  EXPECT_EQ(gi.root, wi.root);
  EXPECT_EQ(gi.dbif, wi.dbif);
  EXPECT_EQ(gi.eta, wi.eta);
  ASSERT_EQ(gi.sinks.size(), wi.sinks.size());
  for (std::size_t s = 0; s < gi.sinks.size(); ++s) {
    EXPECT_EQ(gi.sinks[s].vertex, wi.sinks[s].vertex) << "sink " << s;
    EXPECT_EQ(gi.sinks[s].weight, wi.sinks[s].weight) << "sink " << s;
  }
  EXPECT_EQ(got.root_xy(), want.root_xy());
  ASSERT_EQ(got.plane_sinks().size(), want.plane_sinks().size());
  for (std::size_t s = 0; s < got.plane_sinks().size(); ++s) {
    EXPECT_EQ(got.plane_sinks()[s].pos, want.plane_sinks()[s].pos);
    EXPECT_EQ(got.plane_sinks()[s].weight, want.plane_sinks()[s].weight);
    EXPECT_EQ(got.plane_sinks()[s].delay_bound,
              want.plane_sinks()[s].delay_bound);
  }

  SolverScratch sg;
  SolverScratch sw;
  const OracleOutcome og = run_method(got, SteinerMethod::kCD, params, &sg);
  const OracleOutcome ow = run_method(want, SteinerMethod::kCD, params, &sw);
  EXPECT_EQ(og.grid_edges, ow.grid_edges);
  EXPECT_EQ(og.eval.objective, ow.eval.objective);
  EXPECT_EQ(og.eval.sink_delays, ow.eval.sink_delays);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(SteinerOracle, EvaluateTreeOnBoxEqualsMaterialized) {
  // A box instance prices edges by slot and class; its MaterializedInstance
  // carries the per-edge vectors built from them. evaluate_tree must give
  // the same evaluation on both, bit for bit, for trees from either form,
  // under uneven prices and with a net's own usage priced out.
  const ChipConfig c = tiny_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  CongestionCosts costs(grid);
  OracleParams params;
  params.dbif = 2.0;
  std::vector<std::vector<EdgeId>> routes;
  for (const Net& net : nl.nets) {
    const std::vector<double> weights(net.sinks.size(), 0.5);
    routes.emplace_back();
    if (net.sinks.empty()) continue;
    const OracleInstance oi(grid, costs, net, weights, params);
    routes.back() = run_method(oi, SteinerMethod::kCD, params).grid_edges;
    costs.add_usage(routes.back(), +1.0);
  }
  const auto expect_same = [](const TreeEvaluation& a,
                              const TreeEvaluation& b, const char* what) {
    EXPECT_EQ(bits(a.objective), bits(b.objective)) << what;
    EXPECT_EQ(bits(a.connection_cost), bits(b.connection_cost)) << what;
    EXPECT_EQ(bits(a.weighted_delay), bits(b.weighted_delay)) << what;
    EXPECT_EQ(bits(a.total_delay_penalty), bits(b.total_delay_penalty))
        << what;
    ASSERT_EQ(a.sink_delays.size(), b.sink_delays.size()) << what;
    for (std::size_t s = 0; s < a.sink_delays.size(); ++s) {
      EXPECT_EQ(bits(a.sink_delays[s]), bits(b.sink_delays[s])) << what;
    }
    EXPECT_EQ(a.node_lambda, b.node_lambda) << what;
    EXPECT_EQ(a.num_graph_edges, b.num_graph_edges) << what;
  };
  SparseMap<double> own;
  int checked = 0;
  for (std::size_t i = 0; i < nl.nets.size() && checked < 12; ++i) {
    const Net& net = nl.nets[i];
    if (net.sinks.size() < 2) continue;
    own.clear();
    for (const EdgeId e : routes[i]) {
      own[grid.edge_info(e).resource] += grid.edge_info(e).width;
    }
    const std::vector<double> weights(net.sinks.size(), 0.7);
    for (const bool exclude : {false, true}) {
      SCOPED_TRACE("net " + std::to_string(i) +
                   (exclude ? " excluding own usage" : ""));
      const OracleInstance oi(grid, costs, net, weights, params,
                              exclude ? &own : nullptr);
      const MaterializedInstance csr(oi);
      const CostDistanceInstance& box = oi.instance();
      ASSERT_EQ(csr.instance().num_edges(), box.num_edges());
      for (EdgeId e = 0; e < box.num_edges(); ++e) {
        ASSERT_EQ(bits((*csr.instance().cost)[e]), bits(box.edge_cost(e)));
        ASSERT_EQ(bits((*csr.instance().delay)[e]), bits(box.edge_delay(e)));
      }
      SolverOptions so = params.cd;
      so.future_cost = &oi.future_cost();
      const SolveResult on_box =
          solve_cost_distance(box, so, nullptr, nullptr);
      const SolveResult on_csr =
          solve_cost_distance(csr.instance(), so, nullptr, nullptr);
      expect_same(evaluate_tree(on_box.tree, box),
                  evaluate_tree(on_box.tree, csr.instance()), "box tree");
      expect_same(evaluate_tree(on_csr.tree, box),
                  evaluate_tree(on_csr.tree, csr.instance()), "csr tree");
      expect_same(on_box.eval, evaluate_tree(on_box.tree, csr.instance()),
                  "solver's own evaluation");
    }
    ++checked;
  }
  EXPECT_EQ(checked, 12);
}

TEST(SteinerOracle, RebuiltInstanceEqualsFresh) {
  // One instance rebuilt in place big -> small -> big must equal a freshly
  // constructed one in every field, under live prices and under a frozen
  // round snapshot with the net's own usage excluded: shrinking leaves
  // stale tails in every recycled buffer, and regrowing reuses them.
  const ChipConfig c = tiny_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  OracleParams params;
  params.dbif = 2.0;
  const auto window_cells = [&](const Net& net) {
    const Rect box = RoutingWindow::clip(grid, net_window_box(net, params));
    return (box.width() + 1) * (box.height() + 1);
  };
  const Net* big = &nl.nets[0];
  const Net* small = &nl.nets[0];
  for (const Net& net : nl.nets) {
    if (window_cells(net) > window_cells(*big)) big = &net;
    if (window_cells(net) < window_cells(*small)) small = &net;
  }
  ASSERT_LT(window_cells(*small), window_cells(*big));

  // Commit a route for each of the two nets so prices are uneven and each
  // net has committed usage of its own to exclude.
  CongestionCosts costs(grid);
  std::vector<std::vector<EdgeId>> committed;
  for (const Net* net : {big, small}) {
    const std::vector<double> weights(net->sinks.size(), 0.5);
    const OracleInstance oi(grid, costs, *net, weights, params);
    committed.push_back(run_method(oi, SteinerMethod::kCD, params).grid_edges);
    costs.add_usage(committed.back(), +1.0);
  }

  OracleInstance recycled;
  for (const bool excluding : {false, true}) {
    for (const std::size_t k : {0, 1, 0}) {
      SCOPED_TRACE(testing::Message() << (excluding ? "excluding" : "live")
                                      << " net " << k);
      const Net& net = k == 0 ? *big : *small;
      std::vector<double> weights(net.sinks.size());
      for (std::size_t s = 0; s < weights.size(); ++s) {
        weights[s] = 0.25 + static_cast<double>(s % 3);
      }
      SparseMap<double> excluded;
      for (const EdgeId ge : committed[k]) {
        const RoutingGrid::EdgeInfo& info = grid.edge_info(ge);
        excluded[info.resource] += info.width;
      }
      const SparseMap<double>* own = excluding ? &excluded : nullptr;
      recycled.rebuild(grid, costs, net, weights, params, own);
      const OracleInstance fresh(grid, costs, net, weights, params, own);
      expect_same_instance(recycled, fresh, params);
    }
  }
}

TEST(Metrics, AceOfUniformCongestion) {
  const RoutingGrid grid(8, 8, make_default_layer_stack(3), ViaSpec{});
  CongestionCosts costs(grid);
  // Push every wire resource to exactly half utilization.
  for (EdgeId e = 0; e < grid.graph().num_edges(); ++e) {
    const auto& info = grid.edge_info(e);
    if (info.is_via || info.wire_type != 0) continue;
    const double cap = grid.resource_capacity(info.resource);
    std::vector<EdgeId> one{e};
    const int steps = static_cast<int>(cap / (2.0 * info.width));
    for (int i = 0; i < steps; ++i) costs.add_usage(one, +1.0);
  }
  const CongestionReport rep = compute_ace(costs);
  // All wire utilizations are ~50% (rounded down by integral steps).
  EXPECT_GT(rep.ace4, 35.0);
  EXPECT_LE(rep.ace4, 51.0);
  EXPECT_EQ(rep.overfull_edges, 0u);
}

TEST(Metrics, WireStatsSeparateViasFromWires) {
  const RoutingGrid grid(5, 5, make_default_layer_stack(3), ViaSpec{});
  std::vector<EdgeId> edges;
  std::size_t exp_vias = 0, exp_wires = 0;
  for (EdgeId e = 0; e < grid.graph().num_edges() && edges.size() < 30; ++e) {
    edges.push_back(e);
    if (grid.edge_info(e).is_via) {
      ++exp_vias;
    } else {
      ++exp_wires;
    }
  }
  const WireStats s = compute_wire_stats(grid, {edges});
  EXPECT_EQ(s.num_vias, exp_vias);
  EXPECT_DOUBLE_EQ(s.wirelength_gcells, static_cast<double>(exp_wires));
}

TEST(Router, RoutesTinyChipWithEveryMethod) {
  const ChipConfig c = tiny_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  for (const SteinerMethod m : all_methods()) {
    RouterOptions opts;
    opts.method = m;
    const RouterResult r = route_rounds(grid, nl, opts, 2);
    EXPECT_EQ(r.nets_routed, nl.nets.size()) << method_name(m);
    EXPECT_EQ(r.routes.size(), nl.nets.size());
    EXPECT_GT(r.wires.wirelength_gcells, 0.0);
    EXPECT_GT(r.wires.num_vias, 0u);
    EXPECT_GT(r.congestion.ace4, 0.0);
    EXPECT_EQ(r.sink_delays.size(), nl.num_sinks());
    // Delays are zero only for sinks coincident with their source.
    std::size_t positive = 0;
    for (const double d : r.sink_delays) {
      EXPECT_GE(d, 0.0);
      if (d > 0.0) ++positive;
    }
    EXPECT_GT(positive, nl.num_sinks() / 2);
  }
}

TEST(Router, DeterministicGivenSeed) {
  const ChipConfig c = tiny_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  RouterOptions opts;
  opts.method = SteinerMethod::kCD;
  opts.seed = 5;
  const RouterResult a = route_rounds(grid, nl, opts, 2);
  const RouterResult b = route_rounds(grid, nl, opts, 2);
  EXPECT_DOUBLE_EQ(a.timing.worst_slack, b.timing.worst_slack);
  EXPECT_DOUBLE_EQ(a.timing.total_negative_slack,
                   b.timing.total_negative_slack);
  EXPECT_DOUBLE_EQ(a.wires.wirelength_gcells, b.wires.wirelength_gcells);
  EXPECT_EQ(a.wires.num_vias, b.wires.num_vias);
}

TEST(Router, RipUpAndRerouteImprovesTiming) {
  // More Lagrangean rounds must not leave TNS dramatically worse; typically
  // they improve it because weights steer critical nets to faster wires.
  ChipConfig c = tiny_chip();
  c.num_nets = 120;
  c.rat_tightness = 1.1;  // hard timing
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  RouterOptions opts;
  opts.method = SteinerMethod::kCD;
  const RouterResult r1 = route_rounds(grid, nl, opts, 1);
  const RouterResult r4 = route_rounds(grid, nl, opts, 4);
  // TNS is <= 0; "not worse" means closer to zero (small tolerance for the
  // congestion/timing trade-off the multipliers negotiate).
  EXPECT_GE(r4.timing.total_negative_slack,
            r1.timing.total_negative_slack * 1.05)
      << "Lagrangean rounds degraded timing (r1 TNS "
      << r1.timing.total_negative_slack << ", r4 TNS "
      << r4.timing.total_negative_slack << ")";
}

TEST(Router, ThreadedRoutingIsDeterministic) {
  const ChipConfig c = tiny_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  RouterOptions opts;
  opts.method = SteinerMethod::kCD;
  opts.threads = 4;
  opts.batch_size = 16;
  const RouterResult a = route_rounds(grid, nl, opts, 2);
  const RouterResult b = route_rounds(grid, nl, opts, 2);
  EXPECT_DOUBLE_EQ(a.timing.total_negative_slack,
                   b.timing.total_negative_slack);
  EXPECT_DOUBLE_EQ(a.wires.wirelength_gcells, b.wires.wirelength_gcells);
  EXPECT_EQ(a.wires.num_vias, b.wires.num_vias);
}

TEST(Router, ResultsAreThreadCountInvariant) {
  // RouterOptions::threads documents that results are deterministic and
  // independent of the thread count: the batch structure (not the worker
  // pool) defines which nets price against which snapshot, and each batch
  // dispatches heaviest-first into index-addressed slots. Routing the same
  // netlist with 1, 2 and 4 threads must produce bit-identical routes, sink
  // delays and multipliers. The second input runs the bifurcation-penalty
  // path (dbif > 0) over batches whose nets mix sink counts, so the
  // heaviest-first order differs from net order.
  auto expect_thread_count_invariant = [](const ChipConfig& c,
                                          const RouterOptions& base) {
    const RoutingGrid grid = make_chip_grid(c);
    const Netlist nl = generate_netlist(c, grid);
    RouterOptions opts = base;
    opts.threads = 1;
    const RouterResult one = route_rounds(grid, nl, opts, 2);
    opts.threads = 4;
    const RouterResult four = route_rounds(grid, nl, opts, 2);
    opts.threads = 2;
    const RouterResult two = route_rounds(grid, nl, opts, 2);

    for (const RouterResult* other : {&four, &two}) {
      ASSERT_EQ(one.routes.size(), other->routes.size());
      for (std::size_t i = 0; i < one.routes.size(); ++i) {
        EXPECT_EQ(one.routes[i], other->routes[i]) << c.name << " net " << i;
      }
      EXPECT_EQ(one.sink_delays, other->sink_delays) << c.name;
      EXPECT_EQ(one.sink_weights, other->sink_weights) << c.name;
    }
  };

  RouterOptions opts;
  opts.method = SteinerMethod::kCD;
  opts.batch_size = 16;
  expect_thread_count_invariant(tiny_chip(), opts);

  ChipConfig mixed = tiny_chip();
  mixed.name = "mixed";
  mixed.num_nets = 96;
  mixed.seed = 11;
  mixed.rat_tightness = 1.1;
  const RoutingGrid mixed_grid = make_chip_grid(mixed);
  const Netlist mixed_nl = generate_netlist(mixed, mixed_grid);
  const std::size_t batch = 24;
  ASSERT_EQ(mixed_nl.nets.size() % batch, 0u);
  for (auto first = mixed_nl.nets.begin(); first != mixed_nl.nets.end();
       first += batch) {
    const auto [lightest, heaviest] = std::minmax_element(
        first, first + batch, [](const Net& a, const Net& b) {
          return a.sinks.size() < b.sinks.size();
        });
    ASSERT_LT(lightest->sinks.size(), heaviest->sinks.size())
        << "batch at net " << (first - mixed_nl.nets.begin())
        << " does not mix sink counts";
  }
  opts.batch_size = static_cast<int>(batch);
  opts.oracle.dbif = 8.0;
  expect_thread_count_invariant(mixed, opts);
}

}  // namespace
}  // namespace cdst
