// Tests for the 3D routing grid, congestion pricing, future costs and
// routing windows.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <vector>

#include "graph/dijkstra.h"
#include "grid/cost_model.h"
#include "grid/future_cost.h"
#include "grid/routing_grid.h"
#include "grid/window.h"
#include "util/rng.h"

namespace cdst {
namespace {

RoutingGrid small_grid(int nx = 6, int ny = 5, int nz = 3) {
  return RoutingGrid(nx, ny, make_default_layer_stack(nz), ViaSpec{});
}

TEST(RoutingGrid, VertexRoundTrip) {
  const RoutingGrid g = small_grid();
  for (std::int32_t z = 0; z < g.nz(); ++z) {
    for (std::int32_t y = 0; y < g.ny(); ++y) {
      for (std::int32_t x = 0; x < g.nx(); ++x) {
        const VertexId v = g.vertex_at(x, y, z);
        const Point3 p = g.position(v);
        EXPECT_EQ(p.x, x);
        EXPECT_EQ(p.y, y);
        EXPECT_EQ(p.z, z);
      }
    }
  }
}

TEST(RoutingGrid, EdgeAndResourceCounts) {
  const int nx = 6, ny = 5, nz = 3;
  const RoutingGrid g = small_grid(nx, ny, nz);
  // Expected counts derived from the layer specs: one resource per gcell
  // boundary, one parallel edge per wire type on it, plus one via edge (and
  // resource) per gcell between adjacent layers.
  std::size_t exp_resources = 0, exp_edges = 0;
  for (const LayerSpec& l : g.layers()) {
    const std::size_t bounds = l.dir == LayerDir::kHorizontal
                                   ? static_cast<std::size_t>((nx - 1) * ny)
                                   : static_cast<std::size_t>(nx * (ny - 1));
    exp_resources += bounds;
    exp_edges += bounds * l.wire_types.size();
  }
  const std::size_t vias = static_cast<std::size_t>((nz - 1) * nx * ny);
  EXPECT_EQ(g.num_resources(), exp_resources + vias);
  EXPECT_EQ(g.num_wire_resources(), exp_resources);
  EXPECT_EQ(g.graph().num_edges(), exp_edges + vias);
  // Wire resources come first: compute_ace relies on the id split.
  for (EdgeId e = 0; e < g.graph().num_edges(); ++e) {
    const auto& info = g.edge_info(e);
    EXPECT_EQ(info.resource < g.num_wire_resources(), !info.is_via);
  }
  EXPECT_EQ(g.graph().num_vertices(),
            static_cast<std::size_t>(nx * ny * nz));
}

TEST(RoutingGrid, PreferredDirectionRespected) {
  const RoutingGrid g = small_grid();
  const Graph& gg = g.graph();
  for (EdgeId e = 0; e < gg.num_edges(); ++e) {
    const auto& info = g.edge_info(e);
    const Point3 a = g.position(gg.tail(e));
    const Point3 b = g.position(gg.head(e));
    if (info.is_via) {
      EXPECT_EQ(a.x, b.x);
      EXPECT_EQ(a.y, b.y);
      EXPECT_EQ(std::abs(a.z - b.z), 1);
    } else if (g.layers()[info.layer].dir == LayerDir::kHorizontal) {
      EXPECT_EQ(std::abs(a.x - b.x), 1);
      EXPECT_EQ(a.y, b.y);
    } else {
      EXPECT_EQ(a.x, b.x);
      EXPECT_EQ(std::abs(a.y - b.y), 1);
    }
  }
}

TEST(CongestionCosts, PriceGrowsExponentially) {
  const RoutingGrid g = small_grid();
  CongestionParams params;
  params.price_at_full = 16.0;
  CongestionCosts costs(g, params);
  // Find a wire edge and saturate its resource.
  EdgeId wire = kInvalidEdge;
  for (EdgeId e = 0; e < g.graph().num_edges(); ++e) {
    if (!g.edge_info(e).is_via) {
      wire = e;
      break;
    }
  }
  ASSERT_NE(wire, kInvalidEdge);
  const double base = costs.edge_cost(wire);
  EXPECT_DOUBLE_EQ(base, g.edge_info(wire).unit_cost);

  const double cap = g.resource_capacity(g.edge_info(wire).resource);
  std::vector<EdgeId> once{wire};
  for (int i = 0; i < static_cast<int>(cap / g.edge_info(wire).width); ++i) {
    costs.add_usage(once, +1.0);
  }
  EXPECT_NEAR(costs.edge_cost(wire), base * 16.0, base * 16.0 * 0.1)
      << "price at ~100% utilization must be ~price_at_full x base";
  costs.add_usage(once, -1.0);
  EXPECT_LT(costs.edge_cost(wire), base * 16.0);
}

TEST(CongestionCosts, RipUpNeverGoesNegative) {
  const RoutingGrid g = small_grid();
  CongestionCosts costs(g);
  std::vector<EdgeId> e{0};
  costs.add_usage(e, -1.0);
  EXPECT_GE(costs.usage(g.edge_info(0).resource), 0.0);
}

TEST(CongestionCosts, PriceTableMatchesClosedForm) {
  const RoutingGrid g = small_grid();
  CongestionParams params;
  params.price_at_full = 11.0;
  CongestionCosts costs(g, params);
  const std::size_t m = g.graph().num_edges();
  // The closed form edge_cost had before the price table, recomputed here
  // from the usage alone.
  auto expect_closed_form = [&](const char* step) {
    for (EdgeId e = 0; e < m; ++e) {
      const auto& info = g.edge_info(e);
      const double cap =
          std::max(1e-9, g.resource_capacity(info.resource));
      const double util = costs.usage(info.resource) / cap;
      const double expected =
          info.unit_cost *
          std::exp(std::log(params.price_at_full) * util);
      ASSERT_EQ(costs.edge_cost(e), expected) << step << ", edge " << e;
      ASSERT_EQ(costs.edge_cost_excluding(e, 0.0), costs.edge_cost(e))
          << step << ", edge " << e;
      // The own-usage exclusion, in closed form and as its resource price.
      const double use = std::max(0.0, costs.usage(info.resource) - 0.5);
      const double excluded =
          info.unit_cost *
          std::exp(std::log(params.price_at_full) * (use / cap));
      ASSERT_EQ(costs.edge_cost_excluding(e, 0.5), excluded)
          << step << ", edge " << e;
      ASSERT_EQ(info.unit_cost * costs.price_excluding(info.resource, 0.5),
                excluded)
          << step << ", edge " << e;
    }
  };
  expect_closed_form("constructor");
  Rng rng(20261017);
  for (int step = 0; step < 200; ++step) {
    const std::uint64_t kind = rng.uniform(10);
    if (kind < 7) {
      std::vector<EdgeId> edges(1 + rng.uniform(6));
      for (EdgeId& e : edges) e = static_cast<EdgeId>(rng.uniform(m));
      costs.add_usage(edges, rng.bernoulli(0.7) ? +1.0 : -1.0);
      expect_closed_form("add_usage");
    } else if (kind < 9) {
      const auto r =
          static_cast<ResourceId>(rng.uniform(costs.num_resources()));
      costs.set_usage(r, rng.uniform_double(-2.0, 40.0));
      expect_closed_form("set_usage");
    } else {
      costs.reset();
      expect_closed_form("reset");
    }
  }
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(CongestionCosts, ReloadFromUsagesPricesBitIdentically) {
  // What sharded workers rely on: a CongestionCosts loaded with set_usage
  // from another one's usages() prices every edge, and every own-usage
  // exclusion, bit for bit like the original.
  const RoutingGrid g = small_grid();
  CongestionParams params;
  params.price_at_full = 11.0;
  const std::size_t m = g.graph().num_edges();
  Rng rng(20261018);
  for (int trial = 0; trial < 8; ++trial) {
    CongestionCosts source(g, params);
    for (int step = 0; step < 60; ++step) {
      if (rng.uniform(4) < 3) {
        std::vector<EdgeId> edges(1 + rng.uniform(6));
        for (EdgeId& e : edges) e = static_cast<EdgeId>(rng.uniform(m));
        source.add_usage(edges, rng.bernoulli(0.7) ? +1.0 : -1.0);
      } else {
        source.set_usage(
            static_cast<ResourceId>(rng.uniform(source.num_resources())),
            rng.uniform_double(0.0, 40.0) / 3.0);
      }
    }
    // The worker's instance has a history of its own: an earlier round.
    CongestionCosts loaded(g, params);
    for (ResourceId r = 0; r < loaded.num_resources(); ++r) {
      loaded.set_usage(r, rng.uniform_double(0.0, 10.0));
    }
    const std::vector<double>& usage = source.usages();
    ASSERT_EQ(usage.size(), loaded.num_resources());
    for (ResourceId r = 0; r < usage.size(); ++r) {
      loaded.set_usage(r, usage[r]);
    }
    for (EdgeId e = 0; e < m; ++e) {
      ASSERT_EQ(bits(loaded.edge_cost(e)), bits(source.edge_cost(e)))
          << "trial " << trial << ", edge " << e;
      const double width = g.edge_info(e).width;
      for (const double excluded : {width, 2.0 * width, 0.5}) {
        ASSERT_EQ(bits(loaded.edge_cost_excluding(e, excluded)),
                  bits(source.edge_cost_excluding(e, excluded)))
            << "trial " << trial << ", edge " << e;
      }
    }
  }
}

TEST(FutureCost, BoundsAreAdmissible) {
  const RoutingGrid g = small_grid(7, 7, 4);
  const FutureCost fc(g, /*num_landmarks=*/4);
  const PlaneBoundData pb = fc.plane_bounds();
  ASSERT_TRUE(pb.valid());
  ASSERT_EQ(pb.num_landmarks, 4u);  // the cost bound folds in the landmarks
  const std::vector<double>& base = g.base_costs();
  const std::vector<double>& delays = g.edge_delays();
  Rng rng(99);
  for (int trial = 0; trial < 12; ++trial) {
    const auto s = static_cast<VertexId>(rng.uniform(g.graph().num_vertices()));
    const auto rc =
        dijkstra(g.graph(), {s}, [&](EdgeId e) { return base[e]; });
    const auto rd =
        dijkstra(g.graph(), {s}, [&](EdgeId e) { return delays[e]; });
    for (VertexId v = 0; v < g.graph().num_vertices(); ++v) {
      EXPECT_LE(pb.cost_lb(s, v), rc.dist[v] + 1e-9);
      EXPECT_LE(pb.delay_lb(s, v), rd.dist[v] + 1e-9);
    }
  }
}

/// Grids for the exhaustive id and window checks: 2, 9 and 15 layers of
/// the default stack (1 wire type below the middle, 2 above), a stack that
/// starts vertical with 2 wire types everywhere, and the degenerate
/// one-column and one-row shapes.
std::vector<RoutingGrid> id_test_grids() {
  std::vector<RoutingGrid> grids;
  grids.emplace_back(7, 6, make_default_layer_stack(2), ViaSpec{});
  grids.emplace_back(9, 8, make_default_layer_stack(9), ViaSpec{});
  grids.emplace_back(6, 7, make_default_layer_stack(15), ViaSpec{});
  std::vector<LayerSpec> vertical_first = make_default_layer_stack(4);
  for (LayerSpec& l : vertical_first) {
    l.dir = l.dir == LayerDir::kHorizontal ? LayerDir::kVertical
                                           : LayerDir::kHorizontal;
    if (l.wire_types.size() == 1) l.wire_types.push_back(l.wire_types[0]);
  }
  grids.emplace_back(5, 6, vertical_first, ViaSpec{});
  grids.emplace_back(1, 6, make_default_layer_stack(3), ViaSpec{});
  grids.emplace_back(6, 1, make_default_layer_stack(3), ViaSpec{});
  grids.emplace_back(1, 1, make_default_layer_stack(2), ViaSpec{});
  return grids;
}

TEST(RoutingGrid, EdgeAndResourceArithmeticMatchesGraph) {
  for (const RoutingGrid& g : id_test_grids()) {
    SCOPED_TRACE(std::to_string(g.nx()) + "x" + std::to_string(g.ny()) +
                 "x" + std::to_string(g.nz()));
    const Graph& gg = g.graph();
    // Every edge is where the accessors say, with the accessors' resource.
    for (EdgeId e = 0; e < gg.num_edges(); ++e) {
      const RoutingGrid::EdgeInfo& info = g.edge_info(e);
      const Point3 a = g.position(gg.tail(e));
      const Point3 b = g.position(gg.head(e));
      ASSERT_EQ(a.z, info.layer) << "edge " << e;
      const RoutingGrid::ResourceSite site = g.resource_site(info.resource);
      ASSERT_EQ(site.x, a.x) << "edge " << e;
      ASSERT_EQ(site.y, a.y) << "edge " << e;
      ASSERT_EQ(site.z, a.z) << "edge " << e;
      ASSERT_EQ(site.via, info.is_via) << "edge " << e;
      if (info.is_via) {
        ASSERT_EQ(g.via_edge(a.x, a.y, a.z), e);
        ASSERT_EQ(g.via_resource(a.x, a.y, a.z), info.resource);
        ASSERT_EQ(b, (Point3{a.x, a.y, a.z + 1}));
      } else {
        ASSERT_EQ(g.wire_edge(a.x, a.y, a.z, info.wire_type), e);
        ASSERT_EQ(g.wire_resource(a.x, a.y, a.z), info.resource);
        const bool horizontal =
            g.layers()[info.layer].dir == LayerDir::kHorizontal;
        const Point3 next = horizontal ? Point3{a.x + 1, a.y, a.z}
                                       : Point3{a.x, a.y + 1, a.z};
        ASSERT_EQ(b, next);
      }
    }
    // ...and the accessors name every edge exactly once.
    std::vector<int> named(gg.num_edges(), 0);
    for (std::int32_t z = 0; z < g.nz(); ++z) {
      const LayerSpec& l = g.layers()[static_cast<std::size_t>(z)];
      const bool horizontal = l.dir == LayerDir::kHorizontal;
      std::size_t wires = 0;
      for (std::int32_t y = 0; y < g.ny(); ++y) {
        for (std::int32_t x = 0; x < g.nx(); ++x) {
          if (z + 1 < g.nz()) ++named[g.via_edge(x, y, z)];
          if (horizontal ? x + 1 == g.nx() : y + 1 == g.ny()) continue;
          for (std::uint32_t w = 0; w < l.wire_types.size(); ++w) {
            ++named[g.wire_edge(x, y, z, w)];
            ++wires;
          }
        }
      }
      // A horizontal layer one gcell wide (or a vertical one one gcell
      // tall) has no wire edges.
      if (horizontal ? g.nx() == 1 : g.ny() == 1) {
        EXPECT_EQ(wires, 0u);
      }
    }
    for (EdgeId e = 0; e < gg.num_edges(); ++e) {
      ASSERT_EQ(named[e], 1) << "edge " << e;
    }
  }
}

/// The window the seed materialized per net, rebuilt here from the grid's
/// adjacency alone: window edge e is the e-th grid edge reached from the
/// window vertices in order (tail < head). The reference to_grid_edge map.
std::vector<EdgeId> reference_window_edges(const RoutingGrid& grid,
                                           const RoutingWindow& w) {
  std::vector<EdgeId> out;
  for (VertexId wv = 0; wv < w.box_graph().num_vertices(); ++wv) {
    const VertexId gv = w.to_grid_vertex(wv);
    for (const Graph::Arc& a : grid.graph().arcs(gv)) {
      if (a.to > gv && w.box().contains(grid.position(a.to).xy())) {
        out.push_back(a.edge);
      }
    }
  }
  return out;
}

TEST(Window, BoxAdjacencyEqualsMaterializedCsr) {
  // The window-free oracle's contract: per vertex, the arcs the box
  // generates equal the materialized CSR's arcs in count, order, heads and
  // edges; every window edge maps to the grid edge the seed's window build
  // gave it, with the same endpoints; and its slot and class price it, bit
  // for bit, as that grid edge under each pricing mode, with its delay.
  // Slots no edge uses hold 0.
  enum class Mode { kLive, kExcluding };
  Rng rng(20261018);
  for (const RoutingGrid& grid : id_test_grids()) {
    SCOPED_TRACE(std::to_string(grid.nx()) + "x" + std::to_string(grid.ny()) +
                 "x" + std::to_string(grid.nz()));
    CongestionCosts costs(grid);
    const std::size_t m = grid.graph().num_edges();
    std::vector<EdgeId> route;
    for (int k = 0; k < 40; ++k) {
      route.push_back(static_cast<EdgeId>(rng.uniform(m)));
    }
    costs.add_usage(route, +1.0);
    SparseMap<double> excluded;
    for (std::size_t k = 0; k < route.size(); k += 2) {
      const RoutingGrid::EdgeInfo& info = grid.edge_info(route[k]);
      excluded[info.resource] += info.width;
    }

    std::vector<Rect> boxes;
    const auto box_of = [](std::int32_t xlo, std::int32_t ylo,
                           std::int32_t xhi, std::int32_t yhi) {
      Rect r;
      r.expand(Point2{xlo, ylo});
      r.expand(Point2{xhi, yhi});
      return r;
    };
    const std::int32_t nx = grid.nx();
    const std::int32_t ny = grid.ny();
    boxes.push_back(box_of(0, 0, nx - 1, ny - 1));         // whole grid
    boxes.push_back(box_of(-3, -3, nx + 3, ny + 3));       // clipped all round
    boxes.push_back(box_of(nx / 2, -2, nx / 2, ny + 2));   // 1 gcell wide
    boxes.push_back(box_of(-2, ny / 2, nx + 2, ny / 2));   // 1 gcell tall
    boxes.push_back(box_of(nx / 2, ny / 2, nx / 2, ny / 2));  // one gcell
    for (int k = 0; k < 6; ++k) {
      const auto lo = [&](std::int32_t n) {
        return static_cast<std::int32_t>(rng.uniform(
                   static_cast<std::uint64_t>(n + 2))) - 2;
      };
      // Low corners up to 2 gcells outside, high corners anywhere from the
      // grid's first gcell to 2 outside: every box meets the grid.
      const std::int32_t xlo = lo(nx), ylo = lo(ny);
      boxes.push_back(box_of(
          xlo, ylo,
          std::max(xlo, 0) + static_cast<std::int32_t>(rng.uniform(
                                 static_cast<std::uint64_t>(nx + 2))),
          std::max(ylo, 0) + static_cast<std::int32_t>(rng.uniform(
                                 static_cast<std::uint64_t>(ny + 2)))));
    }

    for (const Mode mode : {Mode::kLive, Mode::kExcluding}) {
      const SparseMap<double>* own =
          mode == Mode::kExcluding ? &excluded : nullptr;
      const auto expected_cost = [&](EdgeId ge) {
        const double* ex =
            own != nullptr ? own->find(grid.edge_info(ge).resource) : nullptr;
        return ex == nullptr ? costs.edge_cost(ge)
                             : costs.edge_cost_excluding(ge, *ex);
      };
      for (const Rect& box : boxes) {
        const RoutingWindow w(grid, costs, box, own);
        const Rect clipped = RoutingWindow::clip(grid, box);
        ASSERT_EQ(w.box(), clipped);
        const BoxGraph& bg = w.box_graph();
        const Graph csr = w.materialize();
        const std::vector<EdgeId> ref = reference_window_edges(grid, w);
        ASSERT_EQ(bg.num_vertices(),
                  static_cast<std::size_t>((clipped.width() + 1) *
                                           (clipped.height() + 1)) *
                      static_cast<std::size_t>(grid.nz()));
        ASSERT_EQ(csr.num_vertices(), bg.num_vertices());
        ASSERT_EQ(csr.num_edges(), bg.num_edges());
        ASSERT_EQ(ref.size(), bg.num_edges());
        const BoxPrices prices = w.prices();
        ASSERT_EQ(prices.price.size(), 2 * bg.num_vertices());
        ASSERT_EQ(prices.unit.size(), bg.num_classes());
        ASSERT_EQ(prices.delay.size(), bg.num_classes());

        std::vector<VertexId> heads(bg.max_degree());
        std::vector<EdgeId> edges(bg.max_degree());
        std::vector<std::uint32_t> slots(bg.max_degree());
        std::vector<std::uint32_t> classes(bg.max_degree());
        std::vector<bool> slot_used(prices.price.size(), false);
        for (VertexId v = 0; v < bg.num_vertices(); ++v) {
          const std::uint32_t deg = bg.arcs(v, heads.data(), edges.data(),
                                            slots.data(), classes.data());
          const std::span<const Graph::Arc> arcs = csr.arcs(v);
          ASSERT_EQ(deg, arcs.size()) << "vertex " << v;
          ASSERT_LE(deg, bg.max_degree());
          for (std::uint32_t k = 0; k < deg; ++k) {
            ASSERT_EQ(heads[k], arcs[k].to) << "vertex " << v << " arc " << k;
            ASSERT_EQ(edges[k], arcs[k].edge)
                << "vertex " << v << " arc " << k;
            const BoxEdgeSite site = bg.site(edges[k]);
            ASSERT_EQ(slots[k], site.slot) << "vertex " << v << " arc " << k;
            ASSERT_EQ(classes[k], site.cls) << "vertex " << v << " arc " << k;
            slot_used[slots[k]] = true;
            const EdgeId ge = w.to_grid_edge(edges[k]);
            ASSERT_EQ(ge, ref[edges[k]]) << "vertex " << v << " arc " << k;
            ASSERT_EQ(bits(prices.cost(slots[k], classes[k])),
                      bits(expected_cost(ge)))
                << "vertex " << v << " arc " << k;
            ASSERT_EQ(bits(prices.delay[classes[k]]),
                      bits(grid.edge_delays()[ge]))
                << "vertex " << v << " arc " << k;
          }
        }
        for (std::size_t slot = 0; slot < slot_used.size(); ++slot) {
          if (!slot_used[slot]) {
            ASSERT_EQ(bits(prices.price[slot]), bits(0.0)) << "slot " << slot;
          }
        }
        for (EdgeId e = 0; e < bg.num_edges(); ++e) {
          ASSERT_EQ(bg.tail(e), csr.tail(e)) << "edge " << e;
          ASSERT_EQ(bg.head(e), csr.head(e)) << "edge " << e;
          const EdgeId ge = ref[e];
          ASSERT_EQ(w.to_grid_vertex(bg.tail(e)), grid.graph().tail(ge));
          ASSERT_EQ(w.to_grid_vertex(bg.head(e)), grid.graph().head(ge));
        }
      }
    }
  }
}

TEST(Window, MapsVerticesAndEdgesBack) {
  const RoutingGrid g = small_grid(10, 10, 3);
  CongestionCosts costs(g);
  Rect box;
  box.expand(Point2{2, 3});
  box.expand(Point2{6, 7});
  const RoutingWindow w(g, costs, box);
  const BoxGraph& bg = w.box_graph();
  EXPECT_EQ(bg.num_vertices(), 5u * 5u * 3u);

  // Round-trip all window vertices.
  for (VertexId wv = 0; wv < bg.num_vertices(); ++wv) {
    const VertexId gv = w.to_grid_vertex(wv);
    EXPECT_EQ(w.from_grid_vertex(gv), wv);
    EXPECT_TRUE(box.contains(g.position(gv).xy()));
  }
  // Outside vertices are unmapped.
  EXPECT_EQ(w.from_grid_vertex(g.vertex_at(0, 0, 0)), kInvalidVertex);

  // Window edges correspond to grid edges with identical endpoints.
  for (EdgeId we = 0; we < bg.num_edges(); ++we) {
    const EdgeId ge = w.to_grid_edge(we);
    const VertexId wa = bg.tail(we), wb = bg.head(we);
    const VertexId ga = g.graph().tail(ge), gb = g.graph().head(ge);
    const bool match = (w.to_grid_vertex(wa) == ga &&
                        w.to_grid_vertex(wb) == gb) ||
                       (w.to_grid_vertex(wa) == gb &&
                        w.to_grid_vertex(wb) == ga);
    EXPECT_TRUE(match);
    const BoxEdgeSite site = bg.site(we);
    EXPECT_EQ(bits(w.prices().delay[site.cls]), bits(g.edge_delays()[ge]));
    EXPECT_EQ(bits(w.prices().cost(site.slot, site.cls)),
              bits(costs.edge_cost(ge)));
  }
}

TEST(Window, ClipsToGrid) {
  const RoutingGrid g = small_grid(5, 5, 2);
  CongestionCosts costs(g);
  Rect box;
  box.expand(Point2{-10, -10});
  box.expand(Point2{100, 100});
  const RoutingWindow w(g, costs, box);
  EXPECT_EQ(w.box_graph().num_vertices(), g.graph().num_vertices());
  EXPECT_EQ(w.box_graph().num_edges(), g.graph().num_edges());
}

TEST(Window, PricesReflectCongestion) {
  const RoutingGrid g = small_grid(8, 8, 3);
  CongestionCosts costs(g);
  // Congest one edge heavily, then check the window sees the high price.
  EdgeId wire = kInvalidEdge;
  for (EdgeId e = 0; e < g.graph().num_edges(); ++e) {
    if (!g.edge_info(e).is_via) {
      wire = e;
      break;
    }
  }
  std::vector<EdgeId> once{wire};
  for (int i = 0; i < 40; ++i) costs.add_usage(once, +1.0);

  Rect box;
  box.expand(Point2{0, 0});
  box.expand(Point2{7, 7});
  const RoutingWindow w(g, costs, box);
  bool found_expensive = false;
  for (EdgeId we = 0; we < w.box_graph().num_edges(); ++we) {
    if (w.to_grid_edge(we) == wire) {
      // The price sits on the boundary's slot, which every wire type of the
      // boundary shares.
      const BoxEdgeSite site = w.box_graph().site(we);
      EXPECT_GT(w.prices().cost(site.slot, site.cls),
                2.0 * g.edge_info(wire).unit_cost);
      EXPECT_EQ(bits(w.prices().price[site.slot]),
                bits(costs.price(g.edge_info(wire).resource)));
      found_expensive = true;
    }
  }
  EXPECT_TRUE(found_expensive);
}

}  // namespace
}  // namespace cdst
