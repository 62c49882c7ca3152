/// \file routing_grid.h
/// The 3D global routing graph.
///
/// Vertices are gcells per layer: (x, y, z) with 0 <= x < nx, 0 <= y < ny,
/// 0 <= z < nz. Within a layer, edges follow the layer's preferred direction,
/// with one parallel edge per wire type. Between adjacent layers there are
/// via edges. Every edge references a capacity *resource* (a geometric gcell
/// boundary); parallel wire-type edges share their boundary's resource and
/// consume `width` units of it, which is how congestion couples wire types.

#pragma once

#include <cstdint>
#include <vector>

#include "geom/point.h"
#include "graph/arc_cost_view.h"
#include "graph/graph.h"
#include "grid/layer.h"

namespace cdst {

using ResourceId = std::uint32_t;

class RoutingGrid {
 public:
  struct EdgeInfo {
    ResourceId resource{0};
    float width{1.0f};       ///< capacity units consumed
    float unit_cost{1.0f};   ///< congestion cost weight at zero usage
    float delay{1.0f};       ///< linear delay (ps) of this edge
    std::uint8_t layer{0};   ///< layer of the edge (lower layer for vias)
    std::uint8_t wire_type{0};
    bool is_via{false};
  };

  RoutingGrid(std::int32_t nx, std::int32_t ny, std::vector<LayerSpec> layers,
              ViaSpec via);

  const Graph& graph() const { return graph_; }

  std::int32_t nx() const { return nx_; }
  std::int32_t ny() const { return ny_; }
  std::int32_t nz() const { return static_cast<std::int32_t>(layers_.size()); }

  const std::vector<LayerSpec>& layers() const { return layers_; }
  const ViaSpec& via() const { return via_; }

  VertexId vertex_at(std::int32_t x, std::int32_t y, std::int32_t z) const {
    CDST_ASSERT(x >= 0 && x < nx_ && y >= 0 && y < ny_ && z >= 0 &&
                z < nz());
    return static_cast<VertexId>((static_cast<std::int64_t>(z) * ny_ + y) *
                                     nx_ +
                                 x);
  }

  VertexId vertex_at(const Point3& p) const {
    return vertex_at(p.x, p.y, p.z);
  }

  Point3 position(VertexId v) const {
    const auto x = static_cast<std::int32_t>(v % nx_);
    const auto y = static_cast<std::int32_t>((v / nx_) % ny_);
    const auto z = static_cast<std::int32_t>(v / (static_cast<std::int64_t>(nx_) * ny_));
    return Point3{x, y, z};
  }

  /// Dense per-vertex positions, finalized with the graph: the SoA geometry
  /// plane behind the future-cost bounds (one load instead of the div/mod
  /// decode of position() in bound-evaluation hot loops).
  const std::vector<Point3>& positions() const { return positions_; }

  const EdgeInfo& edge_info(EdgeId e) const {
    CDST_ASSERT(e < edge_info_.size());
    return edge_info_[e];
  }

  // Edge and resource numbering, as arithmetic. Wire edges come first,
  // layer by layer; within a layer, gcell boundaries in row-major order of
  // their lower endpoint, one edge per wire type (innermost). Vias follow,
  // one per (layer, gcell) in (z, y, x) order. Every boundary and via stack
  // segment owns one resource in the same order. build() lays the graph
  // out by these accessors, so they are the numbering's single definition.

  /// Wire edge of type w from (x, y, z) one gcell along z's preferred
  /// direction (toward higher x on horizontal layers, higher y on vertical).
  EdgeId wire_edge(std::int32_t x, std::int32_t y, std::int32_t z,
                   std::uint32_t w) const {
    const LayerNumbering& l = numbering_[static_cast<std::size_t>(z)];
    CDST_ASSERT(w < l.wire_types);
    return l.first_edge + boundary(l, x, y) * l.wire_types + w;
  }
  /// Resource of the gcell boundary wire_edge(x, y, z, *) crosses.
  ResourceId wire_resource(std::int32_t x, std::int32_t y,
                           std::int32_t z) const {
    const LayerNumbering& l = numbering_[static_cast<std::size_t>(z)];
    return l.first_resource + boundary(l, x, y);
  }
  /// Via edge from (x, y, z) up to (x, y, z + 1).
  EdgeId via_edge(std::int32_t x, std::int32_t y, std::int32_t z) const {
    return numbering_.back().first_edge + via_stack(x, y, z);
  }
  /// Resource of via_edge(x, y, z).
  ResourceId via_resource(std::int32_t x, std::int32_t y,
                          std::int32_t z) const {
    return numbering_.back().first_resource + via_stack(x, y, z);
  }

  /// Where a resource lies: the gcell boundary that wire_edge(x, y, z, *)
  /// crosses, or (via) the via stack segment above (x, y, z).
  struct ResourceSite {
    std::int32_t x{0};
    std::int32_t y{0};
    std::int32_t z{0};
    bool via{false};
  };
  /// The inverse of wire_resource() and via_resource().
  ResourceSite resource_site(ResourceId r) const {
    CDST_ASSERT(r < num_resources());
    if (r >= num_wire_resources()) {
      const Point3 p = position(r - numbering_.back().first_resource);
      return ResourceSite{p.x, p.y, p.z, true};
    }
    std::int32_t z = 0;
    while (numbering_[static_cast<std::size_t>(z) + 1].first_resource <= r) {
      ++z;
    }
    const LayerNumbering& l = numbering_[static_cast<std::size_t>(z)];
    const std::uint32_t b = r - l.first_resource;
    return ResourceSite{static_cast<std::int32_t>(b % l.row),
                        static_cast<std::int32_t>(b / l.row), z, false};
  }

  std::size_t num_resources() const { return resource_capacity_.size(); }
  /// Wire resources (gcell boundaries) are ids [0, num_wire_resources());
  /// via resources follow them.
  std::size_t num_wire_resources() const {
    return numbering_.back().first_resource;
  }
  double resource_capacity(ResourceId r) const {
    CDST_ASSERT(r < resource_capacity_.size());
    return resource_capacity_[r];
  }

  /// Static delay vector indexed by EdgeId (the d of the paper).
  const std::vector<double>& edge_delays() const { return delays_; }

  /// Uncongested unit costs indexed by EdgeId (lower bound of any price).
  const std::vector<double>& base_costs() const { return base_costs_; }

  /// Structure-of-arrays plane of the base edge costs keyed by arc index —
  /// finalized once with the graph. The uncongested metric the landmark
  /// preprocessing scans; congestion prices live on each net's window.
  const ArcCostView& arc_costs() const { return arc_costs_; }

  /// Cheapest congestion cost per gcell over all layers and wire types
  /// (admissible A* ingredient).
  double min_unit_cost() const { return min_unit_cost_; }
  /// Fastest linear delay per gcell over all layers and wire types
  /// ("the fastest layer and wire type combination", Section III-C).
  double min_unit_delay() const { return min_unit_delay_; }
  double min_via_cost() const { return via_.unit_cost; }
  double min_via_delay() const { return via_.delay; }

 private:
  void build();

  /// The numbering of one layer's wire edges: where its edges and boundary
  /// resources start and the shape of its grid of boundaries.
  struct LayerNumbering {
    EdgeId first_edge{0};
    ResourceId first_resource{0};
    std::uint32_t row{0};   ///< boundaries per row: nx - 1 or nx
    std::uint32_t rows{0};  ///< rows of boundaries: ny or ny - 1
    std::uint32_t wire_types{0};
  };

  /// Index of the boundary from (x, y) along l's direction among l's.
  static std::uint32_t boundary(const LayerNumbering& l, std::int32_t x,
                                std::int32_t y) {
    CDST_ASSERT(x >= 0 && static_cast<std::uint32_t>(x) < l.row && y >= 0 &&
                static_cast<std::uint32_t>(y) < l.rows);
    return static_cast<std::uint32_t>(y) * l.row +
           static_cast<std::uint32_t>(x);
  }
  /// Index of the via stack segment above (x, y, z) among all vias.
  std::uint32_t via_stack(std::int32_t x, std::int32_t y,
                          std::int32_t z) const {
    CDST_ASSERT(z + 1 < nz());
    return static_cast<std::uint32_t>(vertex_at(x, y, z));
  }

  std::int32_t nx_;
  std::int32_t ny_;
  std::vector<LayerSpec> layers_;
  ViaSpec via_;

  Graph graph_;
  ArcCostView arc_costs_;
  std::vector<Point3> positions_;
  std::vector<EdgeInfo> edge_info_;
  std::vector<double> delays_;
  std::vector<double> base_costs_;
  std::vector<double> resource_capacity_;
  /// One entry per layer plus one past the top, whose first ids are the
  /// wire edge and wire resource totals: where the vias' ids begin.
  std::vector<LayerNumbering> numbering_;
  double min_unit_cost_{0.0};
  double min_unit_delay_{0.0};
};

/// Convenience factory: a technology-flavoured layer stack with alternating
/// directions, thicker/faster upper layers, and 1-2 wire types per layer.
/// Used by tests, examples, and the synthetic chip generator.
std::vector<LayerSpec> make_default_layer_stack(int num_layers,
                                                double base_capacity = 20.0);

}  // namespace cdst
