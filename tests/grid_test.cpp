// Tests for the 3D routing grid, congestion pricing, future costs and
// routing windows.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

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
  params.smoothing = 1.3;
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
          std::exp(std::log(params.price_at_full) * util * params.smoothing);
      ASSERT_EQ(costs.edge_cost(e), expected) << step << ", edge " << e;
      ASSERT_EQ(costs.edge_cost_excluding(e, 0.0), costs.edge_cost(e))
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

TEST(FutureCost, BoundsAreAdmissible) {
  const RoutingGrid g = small_grid(7, 7, 4);
  const FutureCost fc(g, /*num_landmarks=*/4);
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
      EXPECT_LE(fc.cost_lb(s, v), rc.dist[v] + 1e-9);
      EXPECT_LE(fc.delay_lb(s, v), rd.dist[v] + 1e-9);
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
  EXPECT_EQ(w.graph().num_vertices(), 5u * 5u * 3u);

  // Round-trip all window vertices.
  for (VertexId wv = 0; wv < w.graph().num_vertices(); ++wv) {
    const VertexId gv = w.to_grid_vertex(wv);
    EXPECT_EQ(w.from_grid_vertex(gv), wv);
    EXPECT_TRUE(box.contains(g.position(gv).xy()));
  }
  // Outside vertices are unmapped.
  EXPECT_EQ(w.from_grid_vertex(g.vertex_at(0, 0, 0)), kInvalidVertex);

  // Window edges correspond to grid edges with identical endpoints.
  for (EdgeId we = 0; we < w.graph().num_edges(); ++we) {
    const EdgeId ge = w.to_grid_edge(we);
    const VertexId wa = w.graph().tail(we), wb = w.graph().head(we);
    const VertexId ga = g.graph().tail(ge), gb = g.graph().head(ge);
    const bool match = (w.to_grid_vertex(wa) == ga &&
                        w.to_grid_vertex(wb) == gb) ||
                       (w.to_grid_vertex(wa) == gb &&
                        w.to_grid_vertex(wb) == ga);
    EXPECT_TRUE(match);
    EXPECT_DOUBLE_EQ(w.edge_delays()[we], g.edge_delays()[ge]);
    EXPECT_DOUBLE_EQ(w.edge_costs()[we], costs.edge_cost(ge));
  }
}

TEST(Window, ClipsToGrid) {
  const RoutingGrid g = small_grid(5, 5, 2);
  CongestionCosts costs(g);
  Rect box;
  box.expand(Point2{-10, -10});
  box.expand(Point2{100, 100});
  const RoutingWindow w(g, costs, box);
  EXPECT_EQ(w.graph().num_vertices(), g.graph().num_vertices());
  EXPECT_EQ(w.graph().num_edges(), g.graph().num_edges());
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
  for (EdgeId we = 0; we < w.graph().num_edges(); ++we) {
    if (w.to_grid_edge(we) == wire) {
      EXPECT_GT(w.edge_costs()[we], 2.0 * g.edge_info(wire).unit_cost);
      found_expensive = true;
    }
  }
  EXPECT_TRUE(found_expensive);
}

}  // namespace
}  // namespace cdst
