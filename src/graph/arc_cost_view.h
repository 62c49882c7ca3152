/// \file arc_cost_view.h
/// Structure-of-arrays edge-cost plane keyed by arc index.
///
/// Search clients historically reached edge costs through per-edge functor
/// indirection (cost[a.edge]): a dependent gather per relaxed arc that the
/// compiler can neither vectorize nor prefetch. An ArcCostView expands the
/// per-edge costs once into a per-*arc* array aligned with Graph's SoA arc
/// plane (graph/graph.h): the arcs of vertex v occupy the contiguous index
/// range [arc_begin(v), arc_end(v)), so a relax loop reads them as a
/// sequential strip — the shape the blocked, branch-light kernel in
/// graph/dijkstra.h scans.
///
/// The owned per-arc strip is allocated 32-byte aligned (util/simd.h's
/// AlignedAllocator) and padded with kRelaxStrip zero doubles beyond its
/// logical size, so the Vec4d kernel may issue full-width vector loads at
/// any in-range strip offset — including the last partial strip — without
/// ever reading past the allocation. The accessor span still covers exactly
/// num_arcs() elements; the padding is invisible to callers.
///
/// The view is immutable between assign() calls and always owns the
/// derived per-arc array. The per-edge input is copied by assign() (the
/// safe default for callers whose source array may die first) or borrowed
/// by assign_borrowed() — the right mode for producers whose source
/// vector shares the view's lifetime (RoutingGrid's base plane: a
/// heap-allocated vector's buffer survives moves of the owner, so the
/// borrowed span stays valid).
/// Producer: RoutingGrid finalizes a base-cost plane with its graph, and
/// landmark preprocessing (grid/future_cost.cpp) scans it through
/// ArrayLength. The cost-distance solver needs none: it generates a
/// routing window vertex's arcs from the box (graph/box_graph.h) into a
/// small strip of the same shape, and gathers a CSR instance's c and d
/// per edge. assign() retains capacity, so rebuilds stop churning the
/// allocator.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/simd.h"

namespace cdst {

class ArcCostView {
 public:
  ArcCostView() = default;
  ArcCostView(const Graph& g, std::span<const double> edge_cost) {
    assign(g, edge_cost);
  }

  /// (Re)builds the plane over g from per-edge costs. The graph is borrowed
  /// and must outlive the view; the cost array is copied.
  void assign(const Graph& g, std::span<const double> edge_cost);

  /// Like assign(), but the per-edge cost array is borrowed, not copied —
  /// for producers whose source vector lives exactly as long as the view
  /// (the per-arc strip is still owned/derived).
  void assign_borrowed(const Graph& g, std::span<const double> edge_cost);

  bool empty() const { return graph_ == nullptr; }
  const Graph* graph() const { return graph_; }

  // Per-arc cost strip, index-aligned with Graph::arc_heads(). The backing
  // buffer extends kRelaxStrip zero-padded doubles past the span end
  // (full-width vector loads on the final strip stay in-bounds).
  std::span<const double> arc_cost() const {
    return {arc_cost_.data(), num_arcs_};
  }

  // The per-edge input (what EdgeId-keyed code evaluates; bit-identical to
  // what the per-arc strip was derived from). An owned copy after assign(),
  // a borrowed view after assign_borrowed().
  std::span<const double> edge_cost() const { return edge_cost_view_; }

 private:
  void build_arcs(const Graph& g, std::span<const double> edge_cost);

  const Graph* graph_{nullptr};
  std::size_t num_arcs_{0};  ///< logical strip length (pad lives beyond it)
  AlignedVector<double> arc_cost_;
  std::vector<double> edge_cost_store_;  ///< empty in borrowed mode
  std::span<const double> edge_cost_view_;
};

}  // namespace cdst
