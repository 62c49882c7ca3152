/// \file arc_cost_view.h
/// Structure-of-arrays edge-attribute plane keyed by arc index.
///
/// Search clients historically reached edge attributes through per-edge
/// functor indirection (cost[a.edge], delay[a.edge]): two dependent gathers
/// per relaxed arc that the compiler can neither vectorize nor prefetch. An
/// ArcCostView expands the per-edge attributes once into per-*arc* arrays
/// aligned with Graph's SoA arc plane (graph/graph.h): the arcs of vertex v
/// occupy the contiguous index range [arc_begin(v), arc_end(v)) in every
/// array, so a relax loop reads them as sequential strips — the shape the
/// blocked, branch-light kernel in graph/dijkstra.h scans.
///
/// The owned per-arc strips are allocated 32-byte aligned (util/simd.h's
/// AlignedAllocator) and padded with kRelaxStrip zero doubles beyond their
/// logical size, so the Vec4d kernels may issue full-width vector loads at
/// any in-range strip offset — including the last partial strip — without
/// ever reading past the allocation. The accessor spans still cover exactly
/// num_arcs() elements; the padding is invisible to callers.
///
/// The view is immutable between assign() calls and always owns the
/// derived per-arc arrays. The per-edge inputs are copied by assign() (the
/// safe default for callers whose source arrays may die first) or borrowed
/// by assign_borrowed() — the right mode for producers whose source
/// vectors share the view's lifetime (RoutingGrid's base plane: a
/// heap-allocated vector's buffer survives moves of the owner, so the
/// borrowed spans stay valid).
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
  ArcCostView(const Graph& g, std::span<const double> edge_cost,
              std::span<const double> edge_delay) {
    assign(g, edge_cost, edge_delay);
  }

  /// (Re)builds the plane over g from per-edge attributes. The graph is
  /// borrowed and must outlive the view; the attribute arrays are copied.
  void assign(const Graph& g, std::span<const double> edge_cost,
              std::span<const double> edge_delay);

  /// Like assign(), but the per-edge cost/delay arrays are borrowed, not
  /// copied — for producers whose source vectors live exactly as long as
  /// the view (per-arc strips are still owned/derived).
  void assign_borrowed(const Graph& g, std::span<const double> edge_cost,
                       std::span<const double> edge_delay);

  bool empty() const { return graph_ == nullptr; }
  const Graph* graph() const { return graph_; }

  // Per-arc attribute strips, index-aligned with Graph::arc_heads(). The
  // backing buffers extend kRelaxStrip zero-padded doubles past the span end
  // (full-width vector loads on the final strip stay in-bounds).
  std::span<const double> arc_cost() const {
    return {arc_cost_.data(), num_arcs_};
  }
  std::span<const double> arc_delay() const {
    return {arc_delay_.data(), num_arcs_};
  }

  // The per-edge inputs (what legacy EdgeId-keyed code evaluates;
  // bit-identical to what the per-arc strips were derived from). Owned
  // copies after assign(), borrowed views after assign_borrowed().
  std::span<const double> edge_cost() const { return edge_cost_view_; }
  std::span<const double> edge_delay() const { return edge_delay_view_; }

 private:
  void build_arcs(const Graph& g, std::span<const double> edge_cost,
                  std::span<const double> edge_delay);

  const Graph* graph_{nullptr};
  std::size_t num_arcs_{0};  ///< logical strip length (pad lives beyond it)
  AlignedVector<double> arc_cost_;
  AlignedVector<double> arc_delay_;
  std::vector<double> edge_cost_store_;  ///< empty in borrowed mode
  std::vector<double> edge_delay_store_;
  std::span<const double> edge_cost_view_;
  std::span<const double> edge_delay_view_;
};

}  // namespace cdst
