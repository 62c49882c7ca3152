/// \file window.h
/// Routing windows: the routing grid restricted to a plane rectangle (all
/// layers), priced for one net, with id translation back to the full grid.
///
/// Global routers solve per-net Steiner problems inside the net's bounding
/// box inflated by a detour margin — both for speed and because optimal
/// detours rarely leave that region. All per-net oracles (cost-distance and
/// the embedded baselines) run on windows; usage is committed on grid edges.
///
/// A window stores no graph. Its topology is an implicit BoxGraph
/// (graph/box_graph.h) whose vertex and edge ids are window-local; per net
/// the window fills only the per-vertex grid positions (the future-cost
/// geometry plane) and two per-edge planes: congestion cost, gathered from
/// CongestionCosts at rebuild() (minus a net's own usage, when given), and
/// delay. The cost-distance
/// solver generates each settled vertex's arcs from the box. Consumers
/// that need a CSR call materialize() once.

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
  /// re-priced with that usage excluded (edge_cost_excluding), the sharded
  /// router's equivalent of ripping the net up before pricing. Null prices
  /// every edge as it stands.
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

  /// Congestion prices of window edges (the instance's c vector).
  const std::vector<double>& edge_costs() const { return costs_; }
  /// Static delays of window edges (the instance's d vector).
  const std::vector<double>& edge_delays() const { return delays_; }

  VertexId to_grid_vertex(VertexId wv) const {
    return grid_->vertex_at(positions_[wv]);
  }
  EdgeId to_grid_edge(EdgeId we) const;

  /// Dense per-window-vertex positions in grid coordinates (the SoA
  /// geometry plane behind WindowFutureCost's bounds).
  const std::vector<Point3>& positions() const { return positions_; }

  /// Window vertex for a grid vertex; kInvalidVertex if outside the box.
  VertexId from_grid_vertex(VertexId gv) const;

  /// Maps window-edge paths back to grid edges.
  std::vector<EdgeId> to_grid_edges(const std::vector<EdgeId>& wes) const;

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
  std::vector<Point3> positions_;
  std::vector<double> costs_;
  std::vector<double> delays_;
};

/// FutureCostOracle over a routing window: geometric L1 bounds evaluated in
/// grid coordinates (no landmarks — windows are rebuilt per net).
class WindowFutureCost final : public FutureCostOracle {
 public:
  explicit WindowFutureCost(const RoutingWindow& w) : w_(&w) {}

  Point2 xy(VertexId v) const override { return w_->positions()[v].xy(); }
  double cost_lb(VertexId a, VertexId b) const override {
    const Point3 pa = w_->positions()[a];
    const Point3 pb = w_->positions()[b];
    return static_cast<double>(l1_distance(pa, pb)) *
               w_->grid().min_unit_cost() +
           std::abs(pa.z - pb.z) * w_->grid().min_via_cost();
  }
  double delay_lb(VertexId a, VertexId b) const override {
    const Point3 pa = w_->positions()[a];
    const Point3 pb = w_->positions()[b];
    return static_cast<double>(l1_distance(pa, pb)) *
               w_->grid().min_unit_delay() +
           std::abs(pa.z - pb.z) * w_->grid().min_via_delay();
  }
  double min_unit_cost() const override { return w_->grid().min_unit_cost(); }
  double min_unit_delay() const override {
    return w_->grid().min_unit_delay();
  }

  /// Window bounds are always pure geometry (no landmarks on windows), so
  /// the SoA plane is unconditional.
  PlaneBoundData plane_bounds() const override {
    return PlaneBoundData{w_->positions().data(), w_->grid().min_unit_cost(),
                          w_->grid().min_unit_delay(),
                          w_->grid().min_via_cost(),
                          w_->grid().min_via_delay()};
  }

 private:
  const RoutingWindow* w_;
};

}  // namespace cdst
