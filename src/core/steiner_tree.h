/// \file steiner_tree.h
/// Embedded Steiner trees and their incremental assembly.
///
/// A SteinerTree is an arborescence over structural nodes (root, sinks,
/// Steiner points); each non-root node stores the embedded path of graph
/// edges up to its parent. The assembler supports what Algorithm 1 needs:
/// adding a connection path between two existing components, *splitting* an
/// embedded segment when a path attaches in its interior ("implicitly places
/// Steiner vertices at the points where the path leaves or enters the
/// connected components", Section III-A), and final normalization to a
/// bifurcation-compatible tree (root and sinks are leaves, internal degree
/// <= 3, realized by stacking zero-length Steiner nodes at shared positions).

#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "core/instance.h"
#include "graph/box_graph.h"
#include "graph/graph.h"
#include "util/sparse_map.h"

namespace cdst {

enum class NodeKind : std::uint8_t { kRoot, kSink, kSteiner };

/// Final, immutable embedded Steiner tree (an r-arborescence).
struct SteinerTree {
  struct Node {
    VertexId graph_vertex{kInvalidVertex};
    std::int32_t parent{-1};       ///< node index; -1 for the root
    std::int32_t sink_index{-1};   ///< index into instance sinks, or -1
    NodeKind kind{NodeKind::kSteiner};
    /// Graph edges from this node's vertex up to the parent's vertex,
    /// ordered starting at this node. Empty for the root and for stacked
    /// (zero-length) Steiner nodes.
    std::vector<EdgeId> up_path;
  };

  std::vector<Node> nodes;  ///< nodes[0] is the root
  std::vector<std::vector<std::int32_t>> children;

  std::size_t num_nodes() const { return nodes.size(); }

  /// All graph edges of the tree (each exactly once if the tree is valid).
  std::vector<EdgeId> all_edges() const;

  /// Checks structural soundness against the graph: parent paths connect the
  /// right vertices, every sink appears exactly once, out-degrees <= 2,
  /// root out-degree <= 1, no graph edge used twice. Throws on violation.
  /// `allow_shared_edges` relaxes the edge-reuse check for embeddings of
  /// fixed topologies, which may legitimately route two topology edges over
  /// the same graph edge (paying its cost twice). Allocates its working
  /// storage per call; TreeValidator is the recyclable form.
  void validate(const EdgeEndpoints& g, std::size_t num_sinks,
                bool allow_shared_edges = false) const;
};

/// SteinerTree::validate with recycled working storage: sink counts,
/// out-degrees and a used-edge bitset that survive across calls, so a
/// solver validating every tree it builds allocates nothing once warm.
/// Same checks, same order, same messages as SteinerTree::validate. A call
/// costs O(nodes + tree edges + sinks): the bitset is cleared edge by edge
/// after a tree passes, and wholesale only after a throw left bits set.
class TreeValidator {
 public:
  void validate(const SteinerTree& tree, const EdgeEndpoints& g,
                std::size_t num_sinks, bool allow_shared_edges = false);

 private:
  /// Marks edge e used; false if it already was.
  bool mark_edge(EdgeId e) {
    std::uint64_t& word = used_edges_[e >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (e & 63);
    const bool fresh = (word & bit) == 0;
    word |= bit;
    return fresh;
  }

  std::vector<int> sink_seen_;
  std::vector<std::size_t> out_degree_;
  std::vector<std::uint64_t> used_edges_;  ///< bitset over edge ids
  bool dirty_{false};  ///< a throw left bits set in used_edges_
};

/// Incremental tree assembly used by the cost-distance solver and the
/// topology embedder. Recyclable: reset() starts a new tree and keeps every
/// allocation (node and segment records with their path vectors, the
/// location map and finalize()'s working copies), so the solver's scratch
/// assembles tree after tree without touching the allocator.
class TreeAssembler {
 public:
  using NodeId = std::uint32_t;
  static constexpr NodeId kNoNode = 0xffffffffu;

  /// Unbound; reset() before use.
  TreeAssembler() = default;
  /// Borrows the graph behind `g`, which must outlive the assembler.
  explicit TreeAssembler(const EdgeEndpoints& g) : graph_(g) {}

  /// Drops the assembled structure and rebinds to `g` (borrowed).
  void reset(const EdgeEndpoints& g);

  /// Registers the root terminal; must be called exactly once, first.
  NodeId add_root(VertexId v);

  /// Registers a sink terminal node.
  NodeId add_sink(VertexId v, std::int32_t sink_index);

  /// Adds a free-standing Steiner node (used by the embedder).
  NodeId add_steiner(VertexId v);

  /// Connects two existing nodes with an embedded path (edge ids, ordered
  /// from a to b; may be empty if both nodes share a vertex). The path is
  /// copied into the assembler; callers may pass views into reused scratch.
  void add_segment(NodeId a, NodeId b, std::span<const EdgeId> path);
  void add_segment(NodeId a, NodeId b, std::initializer_list<EdgeId> path) {
    add_segment(a, b, std::span<const EdgeId>(path.begin(), path.size()));
  }

  /// Returns a node located at graph vertex v, creating a Steiner node by
  /// splitting an embedded segment if v currently lies in a segment
  /// interior. Returns kNoNode if v is not part of the assembled structure.
  NodeId node_at(VertexId v);

  /// Whether graph vertex v lies on the assembled structure.
  bool covers(VertexId v) const;

  VertexId vertex_of(NodeId n) const { return nodes_[n].v; }

  std::size_t num_nodes() const { return num_nodes_; }

  /// Orients the structure as an arborescence from the root, normalizes it
  /// to a bifurcation-compatible tree and returns the result. Leaves the
  /// assembled structure unchanged. The only allocations are the returned
  /// tree's own vectors, each sized exactly once.
  /// Throws if the structure is disconnected or cyclic.
  SteinerTree finalize();

 private:
  struct NodeRec {
    VertexId v{kInvalidVertex};
    NodeKind kind{NodeKind::kSteiner};
    std::int32_t sink_index{-1};
    std::vector<std::uint32_t> segs;
  };

  struct Seg {
    NodeId a{kNoNode};
    NodeId b{kNoNode};
    std::vector<EdgeId> edges;    ///< ordered a -> b
    std::vector<VertexId> verts;  ///< edges.size() + 1 vertices, a -> b
  };

  /// Where a graph vertex lives in the structure.
  struct Loc {
    NodeId node{kNoNode};
    std::uint32_t seg{0xffffffffu};
    std::uint32_t offset{0};  ///< index into Seg::verts
    bool is_node() const { return node != kNoNode; }
  };

  /// finalize()'s view of a segment: endpoints plus the assembled segment
  /// whose edges it carries (kNoSeg for a zero-length link).
  struct FinSeg {
    NodeId a{kNoNode};
    NodeId b{kNoNode};
    std::uint32_t src{kNoSeg};
  };
  static constexpr std::uint32_t kNoSeg = 0xffffffffu;

  NodeId new_node(VertexId v, NodeKind kind, std::int32_t sink_index);
  /// The record past the live segments, reset to an empty a -> b segment;
  /// the caller commits it with ++num_segs_.
  Seg& spare_seg(NodeId a, NodeId b);
  NodeId split_segment(std::uint32_t seg_id, std::uint32_t offset);
  void reindex_segment(std::uint32_t seg_id);

  EdgeEndpoints graph_;
  // Records [0, num_nodes_) and [0, num_segs_) are live; those past the
  // counts are recycled husks whose vectors keep their capacity.
  std::vector<NodeRec> nodes_;
  std::vector<Seg> segs_;
  std::size_t num_nodes_{0};
  std::size_t num_segs_{0};
  SparseMap<Loc> loc_;
  NodeId root_{kNoNode};

  // finalize() working set, recycled the same way.
  std::vector<NodeRec> fin_nodes_;
  std::vector<FinSeg> fin_segs_;
  std::vector<std::int32_t> fin_order_;
  std::vector<NodeId> fin_queue_;
  std::vector<std::uint32_t> fin_moved_;
  std::vector<std::uint32_t> fin_child_count_;
};

}  // namespace cdst
