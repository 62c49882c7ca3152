/// \file future_cost.h
/// Admissible lower bounds ("future costs") for goal-oriented path searches
/// (paper Section III-C).
///
/// Congestion cost between two grid vertices is lower-bounded by the L1
/// distance times the cheapest per-gcell unit cost plus the layer difference
/// times the via cost (both evaluated at zero congestion, hence admissible
/// for any price state), optionally strengthened by ALT landmarks on the
/// *current* price metric. Delay is bounded by "L1-distance and the fastest
/// layer and wire type combination for that distance".

#pragma once

#include <memory>

#include "core/future_oracle.h"
#include "graph/landmarks.h"
#include "grid/routing_grid.h"

namespace cdst {

class FutureCost : public FutureCostOracle {
 public:
  /// \param num_landmarks 0 disables the ALT component. Landmark tables are
  ///        built on the grid's base costs (admissible for any price state)
  ///        with the batched avoid-farthest greedy of graph/landmarks.h.
  /// \param pool optional worker pool, borrowed for construction only: the
  ///        per-round landmark Dijkstras build in parallel. Never changes
  ///        which landmarks are picked or any bound returned.
  explicit FutureCost(const RoutingGrid& grid, std::size_t num_landmarks = 0,
                      ThreadPool* pool = nullptr);

  Point2 xy(VertexId v) const override { return grid_->position(v).xy(); }
  double min_unit_cost() const override { return min_unit_cost_; }
  double min_unit_delay() const override { return min_unit_delay_; }

  /// Lower bound on the congestion cost of any a-b path.
  double cost_lb(VertexId a, VertexId b) const override {
    const Point3 pa = grid_->position(a);
    const Point3 pb = grid_->position(b);
    double geo = static_cast<double>(l1_distance(pa, pb)) * min_unit_cost_ +
                 std::abs(pa.z - pb.z) * min_via_cost_;
    if (landmarks_) {
      const double alt = landmarks_->lower_bound(a, b);
      if (alt > geo) geo = alt;
    }
    return geo;
  }

  /// Lower bound on the delay of any a-b path.
  double delay_lb(VertexId a, VertexId b) const override {
    const Point3 pa = grid_->position(a);
    const Point3 pb = grid_->position(b);
    return static_cast<double>(l1_distance(pa, pb)) * min_unit_delay_ +
           std::abs(pa.z - pb.z) * min_via_delay_;
  }

  /// Lower bound on c + w * d between a and b (the search metric l_u).
  double combined_lb(VertexId a, VertexId b, double weight) const {
    return cost_lb(a, b) + weight * delay_lb(a, b);
  }

  /// SoA geometry plane for inline bound evaluation. ALT landmark tables
  /// ride along: PlaneBoundData folds max(geometric, landmark) exactly like
  /// cost_lb() above, so the inline path stays bit-identical and the solver
  /// no longer falls back to virtual dispatch when landmarks are on.
  PlaneBoundData plane_bounds() const override {
    PlaneBoundData pb;
    pb.positions = grid_->positions().data();
    pb.min_unit_cost = min_unit_cost_;
    pb.min_unit_delay = min_unit_delay_;
    pb.min_via_cost = min_via_cost_;
    pb.min_via_delay = min_via_delay_;
    if (landmarks_ != nullptr) {
      pb.landmark_tables = landmarks_->tables().data();
      pb.num_landmarks = landmarks_->count();
    }
    return pb;
  }

  const RoutingGrid& grid() const { return *grid_; }
  bool has_landmarks() const { return landmarks_ != nullptr; }

 private:
  const RoutingGrid* grid_;
  double min_unit_cost_;
  double min_unit_delay_;
  double min_via_cost_;
  double min_via_delay_;
  std::unique_ptr<Landmarks> landmarks_;
};

}  // namespace cdst
