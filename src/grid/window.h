/// \file window.h
/// Routing windows: the routing grid restricted to a plane rectangle (all
/// layers), priced for one net, with id translation back to the full grid.
///
/// Global routers solve per-net Steiner problems inside the net's bounding
/// box inflated by a detour margin — both for speed and because optimal
/// detours rarely leave that region. All per-net oracles (cost-distance and
/// the embedded baselines) run on windows; usage is committed on grid edges.
///
/// A window is a box plus a snapshot of its resources' prices. Its topology
/// is an implicit BoxGraph (graph/box_graph.h) whose vertex and edge ids are
/// window-local, and vertex positions follow from the id and the box origin.
/// Per net the window fills only the slot plane: two doubles per window
/// vertex, the price of the wire boundary it owns and of its via up (0 where
/// it owns none), gathered from CongestionCosts at rebuild() (minus a net's
/// own usage, when given). Unit costs and delays are constant per (layer,
/// wire type | via) class, so a class table of a few entries supplies them;
/// edge e costs unit[class] * price[slot] (BoxPrices). The cost-distance
/// solver generates each settled vertex's arcs and their prices from the
/// box. Consumers that need a CSR call materialize() once.

#pragma once

#include <memory>
#include <vector>

#include "core/future_oracle.h"
#include "geom/rect.h"
#include "graph/box_graph.h"
#include "grid/cost_model.h"
#include "grid/routing_grid.h"
#include "util/sparse_map.h"

namespace cdst {

class RoutingWindow {
 public:
  /// The window of `grid` over the gcells in `box` (clipped to the grid),
  /// all layers included, with current congestion prices as costs
  /// (gathered from CongestionCosts' per-resource price table).
  /// `excluded_usage` (optional, borrowed for the build) maps resource ->
  /// capacity units of a net's own committed usage: those resources are
  /// re-priced with that usage excluded (price_excluding), the sharded
  /// router's equivalent of ripping the net up before pricing. Null prices
  /// every resource as it stands.
  RoutingWindow(const RoutingGrid& grid, const CongestionCosts& costs,
                Rect box, const SparseMap<double>* excluded_usage = nullptr);

  /// An empty window, to be filled by rebuild() before any other use.
  RoutingWindow() = default;

  /// Turns this window into the one the constructor would build for the
  /// same arguments, in place: every buffer keeps its capacity, so a window
  /// recycled across nets allocates only when it meets a larger box. The
  /// prices are read here and never again: later usage changes do not
  /// reach the window.
  void rebuild(const RoutingGrid& grid, const CongestionCosts& costs,
               Rect box, const SparseMap<double>* excluded_usage = nullptr);

  /// `box` clipped to the grid, as the constructor clips it.
  static Rect clip(const RoutingGrid& grid, Rect box);

  /// The window's topology, in window-local vertex and edge ids.
  const BoxGraph& box_graph() const { return graph_; }
  const RoutingGrid& grid() const { return *grid_; }
  const Rect& box() const { return box_; }

  /// The price snapshot: one price per box slot, one unit cost and delay
  /// per class (the box instance's c and d). Valid until the next rebuild().
  BoxPrices prices() const {
    return BoxPrices{
        std::span<const double>(price_.data(), graph_.num_slots()), unit_,
        delay_};
  }

  /// Grid position of window vertex wv, from its id and the box origin.
  Point3 position(VertexId wv) const {
    const BoxCell c = graph_.cell(wv);
    return Point3{box_.xlo + static_cast<std::int32_t>(c.i),
                  box_.ylo + static_cast<std::int32_t>(c.j),
                  static_cast<std::int32_t>(c.z)};
  }
  VertexId to_grid_vertex(VertexId wv) const {
    return grid_->vertex_at(position(wv));
  }
  EdgeId to_grid_edge(EdgeId we) const;

  /// Window vertex for a grid vertex; kInvalidVertex if outside the box.
  VertexId from_grid_vertex(VertexId gv) const;

  /// Maps window-edge paths back to grid edges, in place.
  std::vector<EdgeId> to_grid_edges(std::vector<EdgeId> wes) const;

  /// The window as an explicit CSR graph, built from the grid's own
  /// adjacency: edges in the order their lower endpoints' grid arcs reach
  /// them, which is box_graph()'s numbering and arc order. For consumers
  /// that scan every vertex's arcs (see MaterializedInstance in
  /// route/steiner_oracle.h) and as the reference the box is tested
  /// against; the cost-distance oracle never calls it.
  Graph materialize() const;

 private:
  const RoutingGrid* grid_{nullptr};
  Rect box_;
  BoxGraph graph_;
  std::vector<BoxLayer> layers_;  ///< box_graph()'s layer table input
  /// The slot plane. It only grows, so a recycled window overwrites the
  /// prefix it uses and never refills the tail (see prices()).
  std::vector<double> price_;
  std::vector<double> unit_;   ///< per class
  std::vector<double> delay_;  ///< per class
};

/// FutureCostOracle over a routing window: geometric L1 bounds evaluated in
/// grid coordinates (no landmarks — windows are rebuilt per net).
class WindowFutureCost final : public FutureCostOracle {
 public:
  explicit WindowFutureCost(const RoutingWindow& w) : w_(&w) {}

  /// Pure geometry (no landmarks on windows); positions come from the box.
  PlaneBoundData plane_bounds() const override {
    PlaneBoundData pb;
    pb.box_origin = Point2{w_->box().xlo, w_->box().ylo};
    pb.box_wx = w_->box_graph().wx();
    pb.box_plane = w_->box_graph().wx() * w_->box_graph().wy();
    pb.min_unit_cost = w_->grid().min_unit_cost();
    pb.min_unit_delay = w_->grid().min_unit_delay();
    pb.min_via_cost = w_->grid().min_via_cost();
    pb.min_via_delay = w_->grid().min_via_delay();
    return pb;
  }

 private:
  const RoutingWindow* w_;
};

}  // namespace cdst
