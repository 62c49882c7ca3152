/// \file future_oracle.h
/// Geometry / future-cost interface consumed by the cost-distance solver's
/// goal-oriented search (Section III-C) and Steiner placement (III-D).
///
/// Vertex ids are those of the *solver's* graph — the full routing grid or a
/// routing window (subgraph); implementations publish positions for those
/// ids (grid::FutureCost, grid::WindowFutureCost).

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/point.h"
#include "graph/graph.h"

namespace cdst {

/// The bound oracle in inline-evaluable form: where each vertex lies, plus
/// the four per-unit minima the L1 bound formulas combine, optionally
/// strengthened by ALT landmark tables (graph/landmarks.h) on the cost side.
/// It is the only form in which the solver reads future costs: the inner
/// loop evaluates cost/delay lower bounds inline — a position and a few
/// multiply-adds, plus one dense table load per landmark — with no virtual
/// call per query. Positions come from one of two sources: a dense
/// per-vertex array (the full grid, whose oracle also carries landmarks),
/// or, for a routing window, the vertex id itself: window vertex
/// (z * wy + j) * wx + i lies at box_origin + (i, j) on layer z: two integer
/// divisions per bound, where a positions array would have to be filled per
/// net and read from memory. The solver's batched Vec4d bound evaluation
/// uses the same formula shapes as cost_lb()/delay_lb() below, so every
/// caller gets the same bits; folding each landmark's |t[a] - t[b]| into
/// the running bound is exact in any order because max is.
struct PlaneBoundData {
  /// Dense positions indexed by solver VertexId, or null for a box.
  const Point3* positions{nullptr};
  /// The box form, used when `positions` is null: the grid position of
  /// vertex 0, the box width and its vertices per layer.
  Point2 box_origin;
  std::uint32_t box_wx{0};
  std::uint32_t box_plane{0};
  double min_unit_cost{0.0};
  double min_unit_delay{0.0};
  double min_via_cost{0.0};
  double min_via_delay{0.0};
  /// ALT landmark distance tables (dense per-vertex, one per landmark);
  /// null/0 when the oracle has none. Borrowed from the oracle.
  const std::vector<double>* landmark_tables{nullptr};
  std::size_t num_landmarks{0};

  bool valid() const { return positions != nullptr || box_wx != 0; }

  Point3 position(VertexId v) const {
    if (positions != nullptr) return positions[v];
    const std::uint32_t z = v / box_plane;
    const std::uint32_t r = v - z * box_plane;
    const std::uint32_t j = r / box_wx;
    const std::uint32_t i = r - j * box_wx;
    return Point3{box_origin.x + static_cast<std::int32_t>(i),
                  box_origin.y + static_cast<std::int32_t>(j),
                  static_cast<std::int32_t>(z)};
  }

  /// Admissible lower bound on the congestion cost of any a-b path: the
  /// geometric floor, raised by each landmark's triangle-inequality bound.
  double cost_lb(VertexId a, VertexId b) const {
    const Point3 pa = position(a);
    const Point3 pb = position(b);
    double geo = static_cast<double>(l1_distance(pa, pb)) * min_unit_cost +
                 std::abs(pa.z - pb.z) * min_via_cost;
    for (std::size_t i = 0; i < num_landmarks; ++i) {
      const double d = landmark_tables[i][a] - landmark_tables[i][b];
      const double ad = d < 0 ? -d : d;
      if (ad > geo) geo = ad;
    }
    return geo;
  }

  /// Admissible lower bound on the delay of any a-b path (geometric).
  double delay_lb(VertexId a, VertexId b) const {
    const Point3 pa = position(a);
    const Point3 pb = position(b);
    return static_cast<double>(l1_distance(pa, pb)) * min_unit_delay +
           std::abs(pa.z - pb.z) * min_via_delay;
  }

  Point2 xy(VertexId v) const { return position(v).xy(); }
};

class FutureCostOracle {
 public:
  virtual ~FutureCostOracle() = default;

  /// The oracle's geometry (and landmark tables, if any) in the inline form
  /// the solver evaluates every bound through (see PlaneBoundData). Must be
  /// valid(): a solve with A* or Steiner placement on refuses an oracle
  /// that publishes none. Borrowed pointers inside stay valid as long as
  /// the oracle does.
  virtual PlaneBoundData plane_bounds() const = 0;
};

}  // namespace cdst
