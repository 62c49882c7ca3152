/// \file future_oracle.h
/// Geometry / future-cost interface consumed by the cost-distance solver's
/// goal-oriented search (Section III-C) and Steiner placement (III-D).
///
/// Vertex ids are those of the *solver's* graph — the full routing grid or a
/// routing window (subgraph); implementations translate accordingly
/// (grid::FutureCost, grid::WindowFutureCost).

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/point.h"
#include "graph/graph.h"

namespace cdst {

/// Inline-evaluable form of a bound oracle: where each vertex lies, plus
/// the four per-unit minima the L1 bound formulas combine, optionally
/// strengthened by ALT landmark tables (graph/landmarks.h) on the cost side.
/// When an oracle publishes this (see FutureCostOracle::plane_bounds), the
/// solver's inner loop evaluates cost/delay lower bounds inline — a position
/// and a few multiply-adds, plus one dense table load per landmark — instead
/// of a virtual call per query. Positions come from one of two sources: a
/// dense per-vertex array (the full grid, whose oracle also carries
/// landmarks), or, for a routing window, the vertex id itself: window vertex
/// (z * wy + j) * wx + i lies at box_origin + (i, j) on layer z: two integer
/// divisions per bound, where a positions array would have to be filled per
/// net and read from memory. Bounds computed any of these ways are
/// bit-identical: the geometric formulas are copied verbatim, and folding
/// each landmark's |t[a] - t[b]| into the running bound is exact because
/// max is (the max(geo, max_L ...) of the virtual path associates freely).
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

  /// Exactly the cost_lb formula of the grid oracles: geometric floor,
  /// raised by each landmark's triangle-inequality bound.
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

  /// Exactly the geometric delay_lb formula of the grid oracles.
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

  /// Plane position of a vertex (for L1 nearest-target bounds).
  virtual Point2 xy(VertexId v) const = 0;

  /// Admissible lower bound on the congestion cost of any a-b path.
  virtual double cost_lb(VertexId a, VertexId b) const = 0;

  /// Admissible lower bound on the delay of any a-b path.
  virtual double delay_lb(VertexId a, VertexId b) const = 0;

  /// Cheapest congestion cost per plane unit (any layer/wire type).
  virtual double min_unit_cost() const = 0;

  /// Fastest delay per plane unit (any layer/wire type).
  virtual double min_unit_delay() const = 0;

  /// SoA view of the oracle's geometry (and landmark tables, if any) for
  /// inline bound evaluation (see PlaneBoundData). Default: none — callers
  /// fall back to the virtual bound methods above.
  virtual PlaneBoundData plane_bounds() const { return {}; }
};

}  // namespace cdst
