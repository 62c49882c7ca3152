/// \file box_graph.h
/// Implicit layered box graphs: a routing window as arithmetic.
///
/// A BoxGraph is the subgraph of a layered routing grid over a wx x wy box
/// of gcells on all nz layers: on each layer one parallel edge per wire type
/// between gcells adjacent along the layer's preferred direction, plus one
/// via from every gcell to the gcell above it. Nothing is stored per vertex
/// or per edge. Vertex ids, edge ids, edge endpoints and the arcs of a
/// vertex are computed from the box extent and a per-layer table, so a
/// per-net window costs O(layers) to set up instead of a CSR build.
///
/// Numbering — the one a CSR built from the box's edges in grid order has
/// (RoutingWindow::materialize() builds exactly that CSR):
/// - vertex (i, j, z) is (z * wy + j) * wx + i, the grid's (z, y, x) order
///   restricted to the box;
/// - every edge is *owned* by its lower endpoint (its tail), and edges are
///   numbered by owner: each vertex owns its wires toward higher x/y (wire
///   types ascending), then its via up.
///
/// So the arcs of a vertex in ascending edge id, which is the order arcs()
/// generates them in, are: via down, wires toward lower x/y, wires toward
/// higher x/y, via up.
///
/// Prices live on resources, not on edges. Every edge has a *price slot*
/// and a *class*: slot 2v is the wire boundary vertex v owns (all its wire
/// types share it), slot 2v + 1 is its via up; the class is the edge's
/// (layer, wire type) or (layer, via), which fixes its unit cost and delay.
/// A routing window snapshots one price per slot and one unit cost and delay
/// per class (BoxPrices), and edge e costs unit[class] * price[slot].

#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/assert.h"

namespace cdst {

/// The shape of one grid layer as the box sees it.
struct BoxLayer {
  bool horizontal{true};         ///< wires run in x (else in y)
  std::uint32_t wire_types{1};   ///< parallel wire edges per boundary
};

/// One row of gcells (fixed layer z and box row j), vertices `first` +
/// [0, wx), and the price slots they use: gcell i < `wired` owns a wire
/// boundary toward the next gcell along z's direction, and every gcell owns
/// a via up if `via`. No edge uses the slots of what a gcell does not own.
struct BoxRow {
  std::uint32_t z{0};
  std::uint32_t j{0};
  VertexId first{0};
  std::uint32_t wired{0};
  bool via{false};
};

/// Where a vertex lies in the box: gcell (i, j) on layer z.
struct BoxCell {
  std::uint32_t i{0};
  std::uint32_t j{0};
  std::uint32_t z{0};
};

/// Where an edge lies in the box: its tail gcell (i, j) on layer z, and
/// either wire type w toward the next gcell along z's direction or the via
/// up to z + 1; and the price slot and class that follow from that.
struct BoxEdgeSite {
  std::uint32_t i{0};
  std::uint32_t j{0};
  std::uint32_t z{0};
  std::uint32_t w{0};
  bool via{false};
  std::uint32_t slot{0};
  std::uint32_t cls{0};
};

/// A box graph's prices in resource form, borrowed: `price` holds one entry
/// per slot (two per vertex; a slot no edge uses holds 0), `unit` and
/// `delay` one per class. Edge e costs unit[cls] * price[slot] and delays
/// delay[cls].
struct BoxPrices {
  std::span<const double> price;
  std::span<const double> unit;
  std::span<const double> delay;

  double cost(std::uint32_t slot, std::uint32_t cls) const {
    return unit[cls] * price[slot];
  }
};

class BoxGraph {
 public:
  /// Turns this graph into the wx x wy box over `layers` (bottom to top).
  /// The layer table keeps its capacity across calls.
  void assign(std::int32_t wx, std::int32_t wy,
              std::span<const BoxLayer> layers);

  std::uint32_t wx() const { return wx_; }
  std::uint32_t wy() const { return wy_; }
  std::uint32_t nz() const { return static_cast<std::uint32_t>(layers_.size()); }

  std::size_t num_vertices() const {
    return static_cast<std::size_t>(plane_) * layers_.size();
  }
  std::size_t num_edges() const { return num_edges_; }
  /// Largest arc count of any vertex: two vias plus two wire runs.
  std::uint32_t max_degree() const { return max_degree_; }
  /// Price slots: two per vertex (its wire boundary, its via up).
  std::size_t num_slots() const { return 2 * num_vertices(); }
  /// Classes, numbered layer by layer from the bottom: each layer's wire
  /// types in order, then its via up (if a layer lies above).
  std::uint32_t num_classes() const { return num_classes_; }

  VertexId vertex(std::uint32_t i, std::uint32_t j, std::uint32_t z) const {
    CDST_ASSERT(i < wx_ && j < wy_ && z < nz());
    return (z * wy_ + j) * wx_ + i;
  }
  /// The inverse of vertex().
  BoxCell cell(VertexId v) const {
    CDST_ASSERT(v < num_vertices());
    const std::uint32_t z = v / plane_;
    const std::uint32_t r = v - z * plane_;
    const std::uint32_t j = r / wx_;
    return BoxCell{r - j * wx_, j, z};
  }

  /// Writes the arcs of v (heads, edge ids, price slots and classes, in
  /// ascending edge id) to the four arrays, which must hold max_degree()
  /// entries each, and returns their count.
  std::uint32_t arcs(VertexId v, VertexId* heads, EdgeId* edges,
                     std::uint32_t* slots, std::uint32_t* classes) const {
    const auto [i, j, z] = cell(v);
    std::uint32_t n = 0;
    if (z > 0) {
      const Layer& below = layers_[z - 1];
      heads[n] = v - plane_;
      edges[n] = via_of(below, i, j);
      slots[n] = 2 * (v - plane_) + 1;
      classes[n++] = below.cls + below.wire_types;
    }
    const Layer& l = layers_[z];
    const std::uint32_t along = l.horizontal ? i : j;
    if (along > 0) {
      const EdgeId e0 =
          l.horizontal ? owned(l, i - 1, j) : owned(l, i, j - 1);
      for (std::uint32_t w = 0; w < l.wire_types; ++w) {
        heads[n] = v - l.step;
        edges[n] = e0 + w;
        slots[n] = 2 * (v - l.step);
        classes[n++] = l.cls + w;
      }
    }
    if (along + 1 < (l.horizontal ? wx_ : wy_)) {
      const EdgeId e0 = owned(l, i, j);
      for (std::uint32_t w = 0; w < l.wire_types; ++w) {
        heads[n] = v + l.step;
        edges[n] = e0 + w;
        slots[n] = 2 * v;
        classes[n++] = l.cls + w;
      }
    }
    if (l.via != 0) {
      heads[n] = v + plane_;
      edges[n] = via_of(l, i, j);
      slots[n] = 2 * v + 1;
      classes[n++] = l.cls + l.wire_types;
    }
    return n;
  }

  /// Where edge e lies; the inverse of the numbering.
  BoxEdgeSite site(EdgeId e) const;

  VertexId tail(EdgeId e) const {
    const BoxEdgeSite s = site(e);
    return vertex(s.i, s.j, s.z);
  }
  VertexId head(EdgeId e) const {
    const BoxEdgeSite s = site(e);
    const VertexId t = vertex(s.i, s.j, s.z);
    return s.via ? t + plane_ : t + layers_[s.z].step;
  }

  /// Calls f(row) for every row of gcells in ascending vertex order — how
  /// the window fills its price slots without restating the layer table.
  template <class F>
  void for_each_row(F&& f) const {
    for (std::uint32_t z = 0; z < nz(); ++z) {
      const Layer& l = layers_[z];
      for (std::uint32_t j = 0; j < wy_; ++j) {
        const std::uint32_t wired =
            l.horizontal ? wx_ - 1 : (j + 1 < wy_ ? wx_ : 0);
        f(BoxRow{z, j, (z * wy_ + j) * wx_, wired, l.via != 0});
      }
    }
  }

 private:
  struct Layer {
    EdgeId first{0};             ///< first edge owned by the layer's vertices
    std::uint32_t cls{0};        ///< class of wire type 0; its via is last
    std::uint32_t wire_types{1};
    std::uint32_t via{0};        ///< 1 if a layer lies above
    std::uint32_t owned{0};      ///< edges of a vertex with wires: wires + via
    std::uint32_t row{0};        ///< edges owned by one full row of gcells
    std::uint32_t step{1};       ///< vertex-id step along the direction
    bool horizontal{true};
  };

  /// First edge owned by (i, j) on layer l.
  EdgeId owned(const Layer& l, std::uint32_t i, std::uint32_t j) const {
    const bool wires = l.horizontal || j + 1 < wy_;
    return l.first + j * l.row + i * (wires ? l.owned : l.via);
  }
  /// The via up from (i, j) on layer l (which must have one).
  EdgeId via_of(const Layer& l, std::uint32_t i, std::uint32_t j) const {
    const bool wires = l.horizontal ? i + 1 < wx_ : j + 1 < wy_;
    return owned(l, i, j) + (wires ? l.wire_types : 0);
  }

  std::uint32_t wx_{0};
  std::uint32_t wy_{0};
  std::uint32_t plane_{0};  ///< vertices per layer, wx * wy
  std::size_t num_edges_{0};
  std::uint32_t max_degree_{0};
  std::uint32_t num_classes_{0};
  std::vector<Layer> layers_;
};

/// Endpoint queries over either graph form — what tree assembly and tree
/// validation need. Implicitly built from a Graph or a BoxGraph, both
/// borrowed. A default-constructed one is unbound (a recycled assembler's
/// state before its first reset) and must not be queried.
class EdgeEndpoints {
 public:
  EdgeEndpoints() = default;
  // Implicit on purpose: callers pass either graph form where endpoints
  // are wanted (SteinerTree::validate, TreeAssembler).
  EdgeEndpoints(const Graph& g) : graph_(&g) {}
  EdgeEndpoints(const BoxGraph& b) : box_(&b) {}

  std::size_t num_edges() const {
    return graph_ != nullptr ? graph_->num_edges() : box_->num_edges();
  }
  VertexId tail(EdgeId e) const {
    return graph_ != nullptr ? graph_->tail(e) : box_->tail(e);
  }
  VertexId head(EdgeId e) const {
    return graph_ != nullptr ? graph_->head(e) : box_->head(e);
  }

 private:
  const Graph* graph_{nullptr};
  const BoxGraph* box_{nullptr};
};

}  // namespace cdst
