/// \file dijkstra.h
/// Header-only single/multi-source Dijkstra over a Graph, templated over the
/// edge-length functor. Used for landmark preprocessing, the
/// topology-embedding DP, and as a reference implementation in tests (the
/// cost-distance solver has its own specialized multi-metric search).
///
/// The search kernel is a function template so that callers can pass concrete
/// functor types (ArrayLength, CostDelayLength, a lambda, ...) and the length
/// evaluation inlines into the relax loop.
///
/// The queue is a BinaryHeap. Theorem 1's O(t (n log n + m)) bound uses
/// Fibonacci heaps, but on sparse routing graphs binary heaps are faster in
/// practice (Section III-B).
///
/// ArrayLength constructed from an ArcCostView additionally carries the
/// per-arc structure-of-arrays plane (graph/arc_cost_view.h); landmark
/// preprocessing over the routing grid's base plane is its user. The kernel
/// detects the plane and switches the relax loop to a blocked, branch-light
/// scan: arc
/// lengths are evaluated in kRelaxStrip-arc strips as two explicit Vec4d
/// operations (util/simd.h), the head vertices' current distances are
/// gathered to pre-filter non-improving lanes, and the head distance slots
/// are explicitly prefetched before the update pass. The pre-filter is
/// conservative in exactly the right direction — dist only decreases while a
/// strip commits, so a lane filtered against the strip-entry distances can
/// never have improved later — and every surviving lane re-checks against
/// the live distance (parallel arcs to one head), so results are
/// bit-identical to the per-edge path.

#pragma once

#include <algorithm>
#include <bit>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "graph/arc_cost_view.h"
#include "graph/graph.h"
#include "util/binary_heap.h"
#include "util/prefetch.h"
#include "util/simd.h"

namespace cdst {

struct DijkstraResult {
  std::vector<double> dist;          ///< distance per vertex (inf if unreached)
  std::vector<EdgeId> parent_edge;   ///< edge towards the source tree
  std::vector<VertexId> parent;      ///< predecessor vertex

  static constexpr double kInf = std::numeric_limits<double>::infinity();

  bool reached(VertexId v) const { return dist[v] < kInf; }

  /// Path from a source to v as a list of edge ids (source-to-v order).
  std::vector<EdgeId> path_edges(VertexId v) const {
    std::vector<EdgeId> out;
    while (parent_edge[v] != kInvalidEdge) {
      out.push_back(parent_edge[v]);
      v = parent[v];
    }
    std::reverse(out.begin(), out.end());
    return out;
  }
};

/// Edge lengths read from a dense per-edge array (the common case: windows,
/// grids and landmark preprocessing all keep parallel per-edge vectors).
/// Construct from an ArcCostView to let the kernel scan the view's per-arc
/// cost strip instead of gathering len[a.edge] per arc.
struct ArrayLength {
  std::span<const double> len;      ///< per-edge lengths
  std::span<const double> arc_len;  ///< per-arc SoA strip (empty: no plane)

  ArrayLength() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): implicit span adapter — the
  // kernel call sites pass bare length vectors and read better without a cast.
  ArrayLength(std::span<const double> l) : len(l) {}
  explicit ArrayLength(const ArcCostView& v)
      : len(v.edge_cost()), arc_len(v.arc_cost()) {}

  double operator()(EdgeId e) const { return len[e]; }
  bool has_arc_plane() const { return !arc_len.empty(); }
  double arc_value(std::uint32_t a) const { return arc_len[a]; }
  /// Lengths of arcs a..a+3 (requires a full in-range lane window).
  Vec4d arc_value4(std::uint32_t a) const {
    return Vec4d::load(arc_len.data() + a);
  }
};

/// All edges the same length (unit metrics in tests and hop counts).
struct UniformLength {
  double value{1.0};
  double operator()(EdgeId) const { return value; }
};

/// The weighted routing metric c(e) + w * d(e) used by the embedding DP and
/// the cost-distance solver's CSR path (paper Section II), gathered per
/// edge.
struct CostDelayLength {
  std::span<const double> cost;
  std::span<const double> delay;
  double weight{0.0};

  double operator()(EdgeId e) const { return cost[e] + weight * delay[e]; }
};

/// Length functors that (optionally) carry a per-arc SoA strip the kernel
/// can scan with the blocked relax loop.
template <typename T>
concept ArcPlaneLength = requires(const T& t, std::uint32_t a) {
  { t.has_arc_plane() } -> std::convertible_to<bool>;
  { t.arc_value(a) } -> std::convertible_to<double>;
  { t.arc_value4(a) } -> std::same_as<Vec4d>;
};

/// Core search kernel: label-setting from per-source seed distances, with
/// the length functor resolved at compile time. Functors
/// carrying an arc plane (ArcPlaneLength) are relaxed with the blocked SoA
/// scan; everything else takes the classic per-edge loop. Both paths produce
/// bit-identical results.
template <typename LengthFn>
void dijkstra_search(const Graph& g,
                     const std::vector<std::pair<VertexId, double>>& seeds,
                     const LengthFn& length, VertexId target,
                     DijkstraResult& r) {
  BinaryHeap<double> heap;
  heap.reserve(g.num_vertices());
  for (const auto& [v, d] : seeds) {
    CDST_CHECK(v < g.num_vertices());
    if (d < r.dist[v]) {
      r.dist[v] = d;
      heap.push_or_decrease(v, d);
    }
  }

  bool arc_plane = false;
  if constexpr (ArcPlaneLength<LengthFn>) {
    arc_plane = length.has_arc_plane();
  }

  while (!heap.empty()) {
    const VertexId u = heap.pop_min();
    if (u == target) break;
    const double du = r.dist[u];

    if constexpr (ArcPlaneLength<LengthFn>) {
      if (arc_plane) {
        const std::uint32_t lo = g.arc_begin(u);
        const std::uint32_t hi = g.arc_end(u);
        const VertexId* heads = g.arc_heads().data();
        const EdgeId* edges = g.arc_edges().data();
        // The head vertices' distance slots are the only data-dependent
        // loads of the strip; issue their prefetches before the length pass
        // so they overlap the (purely sequential) strip arithmetic.
        for (std::uint32_t a = lo; a < hi; ++a) {
          prefetch_write(&r.dist[heads[a]]);
        }
        const Vec4d du4 = Vec4d::broadcast(du);
        alignas(kVecAlign) double nd[kRelaxStrip];
        for (std::uint32_t s = lo; s < hi; s += kRelaxStrip) {
          const std::uint32_t cnt = std::min(kRelaxStrip, hi - s);
          if (cnt == kRelaxStrip) {
            // Full strip: two Vec4d metric evaluations, then a gathered
            // compare against the heads' current distances pre-filters the
            // non-improving lanes. dist only decreases while the strip
            // commits, so the pre-filter can only skip lanes the scalar
            // loop would also have skipped; surviving lanes still re-check
            // below (an earlier lane may have lowered the same head via a
            // parallel arc).
            const Vec4d nd0 = du4 + length.arc_value4(s);
            const Vec4d nd1 = du4 + length.arc_value4(s + Vec4d::kLanes);
            nd0.store(nd);
            nd1.store(nd + Vec4d::kLanes);
            unsigned improve = static_cast<unsigned>(
                Vec4d::lt_mask(nd0, Vec4d::gather(r.dist.data(), heads + s)) |
                Vec4d::lt_mask(nd1, Vec4d::gather(r.dist.data(),
                                                  heads + s + Vec4d::kLanes))
                    << Vec4d::kLanes);
            while (improve != 0) {
              const int k = std::countr_zero(improve);
              improve &= improve - 1;
              const VertexId to = heads[s + k];
              CDST_ASSERT(nd[k] >= du);
              if (nd[k] < r.dist[to]) {
                r.dist[to] = nd[k];
                r.parent_edge[to] = edges[s + k];
                r.parent[to] = u;
                heap.push_or_decrease(to, nd[k]);
              }
            }
            continue;
          }
          // Partial tail strip: the scalar evaluation, unchanged.
          for (std::uint32_t k = 0; k < cnt; ++k) {
            nd[k] = du + length.arc_value(s + k);
          }
          for (std::uint32_t k = 0; k < cnt; ++k) {
            const VertexId to = heads[s + k];
            CDST_ASSERT(nd[k] >= du);
            if (nd[k] < r.dist[to]) {
              r.dist[to] = nd[k];
              r.parent_edge[to] = edges[s + k];
              r.parent[to] = u;
              heap.push_or_decrease(to, nd[k]);
            }
          }
        }
        continue;
      }
    }

    for (const Graph::Arc& a : g.arcs(u)) {
      const double w = length(a.edge);
      CDST_ASSERT(w >= 0.0);
      const double nd = du + w;
      if (nd < r.dist[a.to]) {
        r.dist[a.to] = nd;
        r.parent_edge[a.to] = a.edge;
        r.parent[a.to] = u;
        heap.push_or_decrease(a.to, nd);
      }
    }
  }
}

/// Dijkstra with per-source initial distances ("potential" form used by the
/// topology embedding DP: labels seed from a previous DP table).
template <typename LengthFn>
DijkstraResult dijkstra_with_initial_labels(
    const Graph& g, const std::vector<std::pair<VertexId, double>>& seeds,
    const LengthFn& length, VertexId target = kInvalidVertex) {
  const std::size_t n = g.num_vertices();
  DijkstraResult r;
  r.dist.assign(n, DijkstraResult::kInf);
  r.parent_edge.assign(n, kInvalidEdge);
  r.parent.assign(n, kInvalidVertex);

  dijkstra_search(g, seeds, length, target, r);
  return r;
}

/// Runs Dijkstra from the given sources (distance 0 each).
/// \param target if valid, the search stops once target is settled.
template <typename LengthFn>
DijkstraResult dijkstra(const Graph& g, const std::vector<VertexId>& sources,
                        const LengthFn& length,
                        VertexId target = kInvalidVertex) {
  std::vector<std::pair<VertexId, double>> seeds;
  seeds.reserve(sources.size());
  for (VertexId s : sources) seeds.emplace_back(s, 0.0);
  return dijkstra_with_initial_labels(g, seeds, length, target);
}

/// Potential-seeded Dijkstra over a full initial vector: computes
/// M(v) = min_u ( init[u] + dist(u, v) ) for all v. Entries with +inf are
/// not seeded. The workhorse of the optimal topology embedding.
template <typename LengthFn>
DijkstraResult dijkstra_from_potentials(const Graph& g,
                                        const std::vector<double>& init,
                                        const LengthFn& length) {
  CDST_CHECK(init.size() == g.num_vertices());
  std::vector<std::pair<VertexId, double>> seeds;
  for (VertexId v = 0; v < init.size(); ++v) {
    if (init[v] < DijkstraResult::kInf) seeds.emplace_back(v, init[v]);
  }
  return dijkstra_with_initial_labels(g, seeds, length);
}

}  // namespace cdst
