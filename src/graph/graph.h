/// \file graph.h
/// Undirected graph in CSR (compressed sparse row) form.
///
/// Vertices and edges have dense 32-bit ids. Per-edge attributes (congestion
/// cost, delay, layer, ...) are stored in parallel arrays owned by the
/// clients (e.g. grid::RoutingGrid), keeping this structure generic enough
/// for unit tests on arbitrary graphs. Parallel edges (one per wire type) and
/// self-loop-free multigraphs are fully supported.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/assert.h"

namespace cdst {

using VertexId = std::uint32_t;
using EdgeId = std::uint32_t;

constexpr VertexId kInvalidVertex = 0xffffffffu;
constexpr EdgeId kInvalidEdge = 0xffffffffu;

/// Mutable edge-list builder; finalized into an immutable Graph.
class GraphBuilder {
 public:
  explicit GraphBuilder(std::size_t num_vertices = 0)
      : num_vertices_(num_vertices) {}

  std::size_t num_vertices() const { return num_vertices_; }
  std::size_t num_edges() const { return tails_.size(); }

  /// Adds an undirected edge {u, v}; returns its EdgeId.
  EdgeId add_edge(VertexId u, VertexId v) {
    CDST_CHECK(u < num_vertices_ && v < num_vertices_);
    CDST_CHECK_MSG(u != v, "self loops are not supported");
    tails_.push_back(u);
    heads_.push_back(v);
    return static_cast<EdgeId>(tails_.size() - 1);
  }

  friend class Graph;

 private:
  std::size_t num_vertices_{0};
  std::vector<VertexId> tails_;
  std::vector<VertexId> heads_;
};

/// Immutable CSR graph. Each undirected edge appears in both endpoint
/// adjacency lists; adjacency entries pair the edge id with the opposite
/// endpoint.
///
/// Arcs are addressable two ways: the classic array-of-structs `arcs(v)`
/// span, and — finalized at the same time — a structure-of-arrays plane
/// (`arc_heads()` / `arc_edges()` indexed by *arc index*, with the per-vertex
/// range given by `arc_begin()`/`arc_end()`). The SoA plane is what the
/// blocked Dijkstra kernel scans: per-arc cost arrays (ArcCostView) line
/// up with it index-for-index, so a relax loop reads contiguous strips
/// instead of chasing per-edge indirections.
class Graph {
 public:
  struct Arc {
    EdgeId edge;
    VertexId to;
  };

  Graph() = default;
  explicit Graph(const GraphBuilder& b);

  std::size_t num_vertices() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  std::size_t num_edges() const { return tails_.size(); }

  VertexId tail(EdgeId e) const {
    CDST_ASSERT(e < tails_.size());
    return tails_[e];
  }
  VertexId head(EdgeId e) const {
    CDST_ASSERT(e < heads_.size());
    return heads_[e];
  }

  /// The endpoint of e opposite to v. Precondition: v is an endpoint of e.
  VertexId other_end(EdgeId e, VertexId v) const {
    CDST_ASSERT(tails_[e] == v || heads_[e] == v);
    return tails_[e] == v ? heads_[e] : tails_[e];
  }

  /// All arcs leaving v (one per incident undirected edge).
  std::span<const Arc> arcs(VertexId v) const {
    CDST_ASSERT(v < num_vertices());
    return {arcs_.data() + offsets_[v],
            arcs_.data() + offsets_[v + 1]};
  }

  std::size_t degree(VertexId v) const {
    CDST_ASSERT(v < num_vertices());
    return offsets_[v + 1] - offsets_[v];
  }

  /// Total number of arcs (twice the edge count).
  std::size_t num_arcs() const { return arcs_.size(); }

  /// Arc-index range of v in the SoA plane: arcs of v occupy
  /// [arc_begin(v), arc_end(v)) of arc_heads()/arc_edges() and of any
  /// per-arc attribute array built over this graph.
  std::uint32_t arc_begin(VertexId v) const {
    CDST_ASSERT(v < num_vertices());
    return static_cast<std::uint32_t>(offsets_[v]);
  }
  std::uint32_t arc_end(VertexId v) const {
    CDST_ASSERT(v < num_vertices());
    return static_cast<std::uint32_t>(offsets_[v + 1]);
  }

  /// Head vertex per arc index (the SoA twin of arcs()[...].to).
  std::span<const VertexId> arc_heads() const { return arc_heads_; }
  /// Edge id per arc index (the SoA twin of arcs()[...].edge).
  std::span<const EdgeId> arc_edges() const { return arc_edges_; }

 private:
  std::vector<VertexId> tails_;
  std::vector<VertexId> heads_;
  std::vector<std::size_t> offsets_;
  std::vector<Arc> arcs_;
  std::vector<VertexId> arc_heads_;  ///< SoA plane, same order as arcs_
  std::vector<EdgeId> arc_edges_;
};

}  // namespace cdst
