// Property tests for the portable Vec4d used by the blocked relax kernels:
// lane-for-lane bit-identity of every operation against handwritten scalar
// references (across denormal, huge, zero and NaN operands), and solver /
// Dijkstra bit-identity of the vectorized strip paths against the per-edge
// scalar paths over a randomized instance matrix (for the solver: a box
// instance against its materialized CSR). The whole file runs under
// both the AVX2 build and the CDST_FORCE_SCALAR twin — the references are
// build-invariant, so a pass on both lanes certifies the twins agree.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/cdst.h"
#include "graph/arc_cost_view.h"
#include "graph/dijkstra.h"
#include "grid/future_cost.h"
#include "route/steiner_oracle.h"
#include "util/rng.h"
#include "util/simd.h"

namespace cdst {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Operand pool stressing every regime the relax kernels can see: zeros of
// both signs, denormals, huge magnitudes near overflow, ordinary values.
constexpr double kPool[] = {
    0.0,     -0.0,    1.0,       -1.0,     0.5,
    -2.75,   1e-310,  5e-324,    -5e-324,  1e300,
    -1e300,  1e-17,   0.0078125, 1234.5,   1.7976931348623157e308,
};
constexpr int kPoolSize = static_cast<int>(std::size(kPool));

double draw(Rng& rng) {
  return kPool[rng.uniform(static_cast<std::uint64_t>(kPoolSize))];
}

Vec4d draw4(Rng& rng, double out[4]) {
  for (int k = 0; k < 4; ++k) out[k] = draw(rng);
  return Vec4d::load(out);
}

TEST(Vec4d, IsaMatchesBuildConfiguration) {
#if defined(CDST_SIMD_AVX2)
  EXPECT_STREQ(Vec4d::isa(), "avx2");
#else
  EXPECT_STREQ(Vec4d::isa(), "scalar");
#endif
  // The strip width is exactly two vectors; the kernels bake that in.
  EXPECT_EQ(kRelaxStrip, 2 * Vec4d::kLanes);
}

TEST(Vec4d, LoadStoreBroadcastRoundTripBitwise) {
  Rng rng(1);
  for (int it = 0; it < 200; ++it) {
    double a[4];
    const Vec4d v = draw4(rng, a);
    double out[4];
    v.store(out);
    for (int k = 0; k < 4; ++k) {
      EXPECT_EQ(bits(out[k]), bits(a[k]));
      EXPECT_EQ(bits(v.lane(k)), bits(a[k]));
    }
    const double x = draw(rng);
    const Vec4d b = Vec4d::broadcast(x);
    for (int k = 0; k < 4; ++k) EXPECT_EQ(bits(b.lane(k)), bits(x));
  }
}

TEST(Vec4d, GatherReadsIndexedLanes) {
  Rng rng(2);
  double base[64];
  for (double& x : base) x = draw(rng);
  for (int it = 0; it < 100; ++it) {
    std::uint32_t idx[4];
    for (std::uint32_t& i : idx) {
      i = static_cast<std::uint32_t>(rng.uniform(64));
    }
    const Vec4d g = Vec4d::gather(base, idx);
    for (int k = 0; k < 4; ++k) {
      EXPECT_EQ(bits(g.lane(k)), bits(base[idx[k]]));
    }
  }
}

TEST(Vec4d, ArithmeticMatchesScalarExpressionsBitwise) {
  // The references spell the exact expression shapes the kernels use, so
  // whatever fp-contraction policy the build applies hits both sides
  // identically (the bit-identity contract in simd.h).
  Rng rng(3);
  for (int it = 0; it < 500; ++it) {
    double a[4], b[4], c[4];
    const Vec4d va = draw4(rng, a);
    const Vec4d vb = draw4(rng, b);
    const Vec4d vc = draw4(rng, c);
    const Vec4d sum = va + vb;
    const Vec4d diff = va - vb;
    const Vec4d prod = va * vb;
    const Vec4d fma = Vec4d::mul_add(va, vb, vc);
    for (int k = 0; k < 4; ++k) {
      EXPECT_EQ(bits(sum.lane(k)), bits(a[k] + b[k]));
      EXPECT_EQ(bits(diff.lane(k)), bits(a[k] - b[k]));
      EXPECT_EQ(bits(prod.lane(k)), bits(a[k] * b[k]));
      EXPECT_EQ(bits(fma.lane(k)), bits(a[k] * b[k] + c[k]));
    }
  }
}

TEST(Vec4d, MinMaxAbsFollowVectorSemantics) {
  // vminpd/vmaxpd return the SECOND operand when lanes are unordered or
  // both zero — the references below are that rule verbatim; NaN operands
  // included to pin the twins to it.
  Rng rng(4);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int it = 0; it < 500; ++it) {
    double a[4], b[4];
    const Vec4d va = draw4(rng, a);
    Vec4d vb = draw4(rng, b);
    if (it % 7 == 0) {
      b[it % 4] = nan;
      vb = Vec4d::load(b);
    }
    const Vec4d mn = Vec4d::min(va, vb);
    const Vec4d mx = Vec4d::max(va, vb);
    const Vec4d ab = Vec4d::abs(va);
    for (int k = 0; k < 4; ++k) {
      EXPECT_EQ(bits(mn.lane(k)), bits(a[k] < b[k] ? a[k] : b[k]));
      EXPECT_EQ(bits(mx.lane(k)), bits(a[k] > b[k] ? a[k] : b[k]));
      EXPECT_EQ(bits(ab.lane(k)), bits(a[k]) & ~(1ull << 63));
    }
  }
  // |-0.0| clears the sign bit exactly.
  EXPECT_EQ(bits(Vec4d::abs(Vec4d::broadcast(-0.0)).lane(0)), bits(0.0));
}

TEST(Vec4d, LtMaskBlendHminAgreeWithReference) {
  Rng rng(5);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int it = 0; it < 500; ++it) {
    double a[4], b[4];
    Vec4d va = draw4(rng, a);
    const Vec4d vb = draw4(rng, b);
    if (it % 11 == 0) {
      a[(it / 11) % 4] = nan;  // ordered compare: NaN lanes read false
      va = Vec4d::load(a);
    }
    int want = 0;
    for (int k = 0; k < 4; ++k) want |= static_cast<int>(a[k] < b[k]) << k;
    EXPECT_EQ(Vec4d::lt_mask(va, vb), want);

    for (int mask = 0; mask < 16; ++mask) {
      const Vec4d bl = Vec4d::blend(va, vb, mask);
      for (int k = 0; k < 4; ++k) {
        const double ref = ((mask >> k) & 1) != 0 ? b[k] : a[k];
        EXPECT_EQ(bits(bl.lane(k)), bits(ref));
      }
    }

    if (it % 11 != 0) {  // hmin tree on ordered operands
      const double m0 = a[0] < a[2] ? a[0] : a[2];
      const double m1 = a[1] < a[3] ? a[1] : a[3];
      EXPECT_EQ(bits(va.hmin()), bits(m0 < m1 ? m0 : m1));
    }
  }
}

// ---------------------------------------------------------------------------
// Kernel-level bit-identity on randomized planes.

TEST(SimdDijkstra, ExtremeMagnitudeCostsStayBitIdentical) {
  // Edge lengths spanning denormal to near-overflow: the blocked SoA strip
  // kernel must reproduce the per-edge loop bit-for-bit even where sums
  // denormalize or saturate to infinity.
  Rng rng(17);
  GraphBuilder b(80);
  std::vector<double> cost, delay;
  constexpr double kMag[] = {5e-324, 1e-310, 1e-17, 1.0, 1e300};
  for (int e = 0; e < 400; ++e) {
    const auto u = static_cast<VertexId>(rng.uniform(80));
    auto v = static_cast<VertexId>(rng.uniform(80));
    if (u == v) v = (v + 1) % 80;
    b.add_edge(u, v);
    cost.push_back(kMag[rng.uniform(5)] * (1.0 + rng.uniform_double()));
    delay.push_back(kMag[rng.uniform(5)] * rng.uniform_double());
  }
  const Graph g(b);
  const ArcCostView view(g, cost);

  const DijkstraResult scalar =
      dijkstra(g, {0, 9}, ArrayLength{cost}, kInvalidVertex);
  const DijkstraResult soa =
      dijkstra(g, {0, 9}, ArrayLength(view), kInvalidVertex);
  ASSERT_EQ(scalar.dist, soa.dist);
  ASSERT_EQ(scalar.parent_edge, soa.parent_edge);

  // The weighted metric c + 3 d as one length plane: sums of mixed
  // magnitudes per edge as well as along paths.
  std::vector<double> metric(cost.size());
  for (std::size_t e = 0; e < cost.size(); ++e) {
    metric[e] = cost[e] + 3.0 * delay[e];
  }
  const ArcCostView metric_view(g, metric);
  const DijkstraResult scalar_cd =
      dijkstra(g, {5}, ArrayLength{metric}, kInvalidVertex);
  const DijkstraResult soa_cd =
      dijkstra(g, {5}, ArrayLength(metric_view), kInvalidVertex);
  ASSERT_EQ(scalar_cd.dist, soa_cd.dist);
  ASSERT_EQ(scalar_cd.parent_edge, soa_cd.parent_edge);
}

// One solver configuration of the property matrix below.
struct SolverVariant {
  const char* name;
  int sinks{10};              // 1 = singleton connection paths
  bool zero_weights{false};   // all delay weights 0: pure-cost objective
  bool discounts{true};       // III-A/III-E discount levers
  bool astar{true};           // false: no future cost at all
};

/// Same tree, objective bits, sink delays and work counters.
void expect_identical(const SolveResult& a, const SolveResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.tree.all_edges(), b.tree.all_edges()) << what;
  EXPECT_EQ(bits(a.eval.objective), bits(b.eval.objective)) << what;
  EXPECT_EQ(a.eval.sink_delays, b.eval.sink_delays) << what;
  EXPECT_EQ(a.stats.labels_settled, b.stats.labels_settled) << what;
  EXPECT_EQ(a.stats.labels_relaxed, b.stats.labels_relaxed) << what;
}

TEST(SimdSolver, StripRelaxBitIdenticalToPerEdgeAcrossInstanceMatrix) {
  // Strip vs per-edge relaxation is box vs CSR: a routing window's box
  // instance relaxes through the Vec4d strip kernel, its
  // MaterializedInstance through the per-edge loop. Across the regimes that
  // exercise every kernel branch — discount blending, singleton paths,
  // zero-weight delays and the no-A* flush path — both must give the same
  // result, bit for bit, under uneven prices.
  const SolverVariant kVariants[] = {
      {"default"},
      {"singleton", /*sinks=*/1},
      {"zero_weights", 10, /*zero_weights=*/true},
      {"no_discounts", 10, false, /*discounts=*/false},
      {"no_astar", 10, false, true, /*astar=*/false},
  };
  const RoutingGrid grid(16, 16, make_default_layer_stack(3), ViaSpec{});
  const auto m = static_cast<std::uint64_t>(grid.graph().num_edges());

  for (const SolverVariant& variant : kVariants) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const std::string what =
          std::string(variant.name) + " seed " + std::to_string(seed);
      Rng rng(seed * 71 + 5);
      CongestionCosts costs(grid);
      for (int k = 0; k < 600; ++k) {
        costs.add_usage({static_cast<EdgeId>(rng.uniform(m))}, +1.0);
      }
      std::set<std::pair<std::int32_t, std::int32_t>> used;
      const auto pick = [&] {
        while (true) {
          const auto x = static_cast<std::int32_t>(rng.uniform(16));
          const auto y = static_cast<std::int32_t>(rng.uniform(16));
          if (used.insert({x, y}).second) return Point3{x, y, 0};
        }
      };
      Net net;
      net.source = pick();
      std::vector<double> weights;
      for (int s = 0; s < variant.sinks; ++s) {
        net.sinks.push_back(SinkPin{pick(), 0.0});
        weights.push_back(variant.zero_weights ? 0.0
                                               : 0.1 + rng.uniform_double());
      }
      OracleParams params;
      params.dbif = variant.discounts ? 2.0 : 0.0;
      params.eta = variant.discounts ? 0.25 : 0.0;
      params.window_margin = 2;
      params.window_margin_frac = 0.0;
      const OracleInstance oi(grid, costs, net, weights, params);
      const MaterializedInstance csr(oi);
      ASSERT_NE(oi.instance().box, nullptr) << what;
      ASSERT_NE(csr.instance().graph, nullptr) << what;

      SolverOptions opts;
      opts.discount_components = variant.discounts;
      opts.encourage_root = variant.discounts;
      opts.use_astar = variant.astar;
      opts.better_steiner_placement = variant.astar;
      if (variant.astar) opts.future_cost = &oi.future_cost();
      CdSolver solver(opts);

      const StatusOr<SolveResult> strip = solver.solve(oi.instance());
      ASSERT_TRUE(strip.ok()) << what;
      const StatusOr<SolveResult> per_edge = solver.solve(csr.instance());
      ASSERT_TRUE(per_edge.ok()) << what;
      expect_identical(*strip, *per_edge, what);
    }
  }
}

TEST(SimdSolver, LandmarkBoundsMemoizedEqualRecomputed) {
  // ALT landmarks exist only on the full grid's oracle, a CSR instance.
  // There the Vec4d bound batch gathers each landmark table and folds it
  // in by max; a solve with the per-search bound memo (dense state) must
  // equal one that recomputes every bound (sparse state), bit for bit.
  const RoutingGrid grid(16, 16, make_default_layer_stack(3), ViaSpec{});
  const FutureCost fc(grid, /*num_landmarks=*/4);
  ASSERT_EQ(fc.plane_bounds().num_landmarks, 4u);
  const std::vector<double>& delay = grid.edge_delays();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const std::string what = "seed " + std::to_string(seed);
    Rng rng(seed * 71 + 5);
    std::vector<double> cost(grid.graph().num_edges());
    for (std::size_t e = 0; e < cost.size(); ++e) {
      cost[e] = grid.base_costs()[e] * (1.0 + 3.0 * rng.uniform_double());
    }
    CostDistanceInstance inst;
    inst.graph = &grid.graph();
    inst.cost = &cost;
    inst.delay = &delay;
    inst.dbif = 2.0;
    inst.eta = 0.25;
    inst.root = grid.vertex_at(1, 2, 0);
    for (int s = 0; s < 10; ++s) {
      inst.sinks.push_back(Terminal{
          grid.vertex_at(static_cast<std::int32_t>(rng.uniform(16)),
                         static_cast<std::int32_t>(rng.uniform(16)), 0),
          0.1 + rng.uniform_double()});
    }
    SolverOptions opts;
    opts.future_cost = &fc;
    SolverOptions sparse = opts;
    sparse.dense_state_budget_bytes = 0;
    const StatusOr<SolveResult> memo = CdSolver(opts).solve(inst);
    ASSERT_TRUE(memo.ok()) << what;
    const StatusOr<SolveResult> recomputed = CdSolver(sparse).solve(inst);
    ASSERT_TRUE(recomputed.ok()) << what;
    expect_identical(*memo, *recomputed, what);
  }
}

}  // namespace
}  // namespace cdst
