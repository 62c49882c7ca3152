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

  /// The grid's dense position array, the zero-congestion unit minima and,
  /// when built, the ALT landmark tables (PlaneBoundData::cost_lb folds
  /// them into the geometric floor by max).
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

 private:
  const RoutingGrid* grid_;
  double min_unit_cost_;
  double min_unit_delay_;
  double min_via_cost_;
  double min_via_delay_;
  std::unique_ptr<Landmarks> landmarks_;
};

}  // namespace cdst
