#include "core/steiner_tree.h"

#include <algorithm>
#include <unordered_set>

namespace cdst {

std::vector<EdgeId> SteinerTree::all_edges() const {
  std::vector<EdgeId> out;
  for (const Node& n : nodes) {
    out.insert(out.end(), n.up_path.begin(), n.up_path.end());
  }
  return out;
}

void SteinerTree::validate(const EdgeEndpoints& g, std::size_t num_sinks,
                           bool allow_shared_edges) const {
  CDST_CHECK(!nodes.empty());
  CDST_CHECK(nodes[0].parent == -1);
  CDST_CHECK(nodes[0].kind == NodeKind::kRoot);
  CDST_CHECK(children.size() == nodes.size());

  std::vector<int> sink_seen(num_sinks, 0);
  std::vector<std::size_t> out_degree(nodes.size(), 0);
  std::unordered_set<EdgeId> used_edges;

  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Node& n = nodes[i];
    if (i == 0) {
      CDST_CHECK(n.up_path.empty());
    } else {
      CDST_CHECK(n.parent >= 0 &&
                 static_cast<std::size_t>(n.parent) < nodes.size());
      ++out_degree[static_cast<std::size_t>(n.parent)];
      // Walk the embedded path from this node to the parent.
      VertexId at = n.graph_vertex;
      for (const EdgeId e : n.up_path) {
        CDST_CHECK(e < g.num_edges());
        CDST_CHECK_MSG(used_edges.insert(e).second || allow_shared_edges,
                       "graph edge used by two tree segments");
        const VertexId t = g.tail(e);
        const VertexId h = g.head(e);
        CDST_CHECK_MSG(t == at || h == at, "embedded path is not contiguous");
        at = t == at ? h : t;
      }
      CDST_CHECK_MSG(
          at == nodes[static_cast<std::size_t>(n.parent)].graph_vertex,
          "embedded path does not reach the parent vertex");
    }
    if (n.kind == NodeKind::kSink) {
      CDST_CHECK(n.sink_index >= 0 &&
                 static_cast<std::size_t>(n.sink_index) < num_sinks);
      ++sink_seen[static_cast<std::size_t>(n.sink_index)];
    }
  }
  for (std::size_t s = 0; s < num_sinks; ++s) {
    CDST_CHECK_MSG(sink_seen[s] == 1, "sink missing or duplicated in tree");
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    CDST_CHECK(children[i].size() == out_degree[i]);
    if (nodes[i].kind == NodeKind::kRoot) {
      CDST_CHECK_MSG(out_degree[i] <= 1, "root must be a leaf");
    } else if (nodes[i].kind == NodeKind::kSink) {
      CDST_CHECK_MSG(out_degree[i] == 0, "sinks must be leaves");
    } else {
      CDST_CHECK_MSG(out_degree[i] <= 2,
                     "internal vertices must have degree at most 3");
    }
  }
}

TreeAssembler::NodeId TreeAssembler::new_node(VertexId v, NodeKind kind,
                                              std::int32_t sink_index) {
  nodes_.push_back(NodeRec{v, kind, sink_index, {}});
  const auto id = static_cast<NodeId>(nodes_.size() - 1);
  // Terminals always own their vertex location; later writers (segments
  // passing through) may overwrite, which is fine — see node_at().
  loc_[v] = Loc{id, 0xffffffffu, 0};
  return id;
}

TreeAssembler::NodeId TreeAssembler::add_root(VertexId v) {
  CDST_CHECK_MSG(root_ == kNoNode, "root already added");
  root_ = new_node(v, NodeKind::kRoot, -1);
  return root_;
}

TreeAssembler::NodeId TreeAssembler::add_sink(VertexId v,
                                              std::int32_t sink_index) {
  return new_node(v, NodeKind::kSink, sink_index);
}

TreeAssembler::NodeId TreeAssembler::add_steiner(VertexId v) {
  return new_node(v, NodeKind::kSteiner, -1);
}

bool TreeAssembler::covers(VertexId v) const { return loc_.find(v) != nullptr; }

TreeAssembler::NodeId TreeAssembler::node_at(VertexId v) {
  const Loc* loc = loc_.find(v);
  if (loc == nullptr) return kNoNode;
  if (loc->is_node()) return loc->node;
  return split_segment(loc->seg, loc->offset);
}

void TreeAssembler::reindex_segment(std::uint32_t seg_id) {
  const Seg& s = segs_[seg_id];
  // Interior vertices point into this segment; endpoints keep their node loc.
  for (std::uint32_t i = 1; i + 1 < s.verts.size(); ++i) {
    loc_[s.verts[i]] = Loc{kNoNode, seg_id, i};
  }
}

TreeAssembler::NodeId TreeAssembler::split_segment(std::uint32_t seg_id,
                                                   std::uint32_t offset) {
  Seg& s = segs_[seg_id];
  CDST_ASSERT(offset > 0 && offset + 1 < s.verts.size());
  const VertexId v = s.verts[offset];
  const NodeId mid = new_node(v, NodeKind::kSteiner, -1);

  // Tail half becomes a new segment mid -> b.
  Seg tail;
  tail.a = mid;
  tail.b = s.b;
  tail.edges.assign(s.edges.begin() + offset, s.edges.end());
  tail.verts.assign(s.verts.begin() + offset, s.verts.end());

  // Head half: a -> mid (shrink in place).
  const NodeId old_b = s.b;
  s.b = mid;
  s.edges.resize(offset);
  s.verts.resize(offset + 1);

  const auto tail_id = static_cast<std::uint32_t>(segs_.size());
  segs_.push_back(std::move(tail));

  // Fix adjacency: old_b loses seg_id, gains tail; mid gains both.
  auto& b_segs = nodes_[old_b].segs;
  b_segs.erase(std::find(b_segs.begin(), b_segs.end(), seg_id));
  b_segs.push_back(tail_id);
  nodes_[mid].segs.push_back(seg_id);
  nodes_[mid].segs.push_back(tail_id);

  reindex_segment(seg_id);
  reindex_segment(tail_id);
  return mid;
}

void TreeAssembler::add_segment(NodeId a, NodeId b,
                                std::span<const EdgeId> path) {
  CDST_CHECK(a < nodes_.size() && b < nodes_.size());
  if (a == b) {
    CDST_CHECK_MSG(path.empty(), "non-empty segment with equal endpoints");
    return;
  }
  Seg s;
  s.a = a;
  s.b = b;
  s.edges.assign(path.begin(), path.end());
  s.verts.reserve(path.size() + 1);
  VertexId at = nodes_[a].v;
  s.verts.push_back(at);
  for (const EdgeId e : path) {
    const VertexId t = graph_.tail(e);
    const VertexId h = graph_.head(e);
    CDST_CHECK_MSG(t == at || h == at, "segment path is not contiguous");
    at = t == at ? h : t;
    s.verts.push_back(at);
  }
  CDST_CHECK_MSG(at == nodes_[b].v, "segment path does not reach endpoint");

  const auto seg_id = static_cast<std::uint32_t>(segs_.size());
  segs_.push_back(std::move(s));
  nodes_[a].segs.push_back(seg_id);
  nodes_[b].segs.push_back(seg_id);
  reindex_segment(seg_id);
}

SteinerTree TreeAssembler::finalize() const {
  CDST_CHECK_MSG(root_ != kNoNode, "no root added");

  // Work on a mutable copy so normalization can restructure.
  std::vector<NodeRec> nodes = nodes_;
  std::vector<Seg> segs = segs_;

  // --- Normalize: terminals must be leaves, internal degree <= 3. ---------
  // A terminal (root/sink) with degree k > (root ? 1 : 1 if attached ... )
  // keeps no segment; all its segments move to a stacked Steiner twin,
  // connected by a zero-length segment. Internal nodes with > 3 segments
  // split off extra segments onto twins chained at the same position.
  auto add_twin = [&](NodeId n) -> NodeId {
    nodes.push_back(NodeRec{nodes[n].v, NodeKind::kSteiner, -1, {}});
    return static_cast<NodeId>(nodes.size() - 1);
  };
  auto add_zero_seg = [&](NodeId a, NodeId b) {
    const auto id = static_cast<std::uint32_t>(segs.size());
    Seg z;
    z.a = a;
    z.b = b;
    z.verts = {nodes[a].v};  // degenerate; not used for walking
    segs.push_back(std::move(z));
    nodes[a].segs.push_back(id);
    nodes[b].segs.push_back(id);
  };
  auto move_seg_endpoint = [&](std::uint32_t seg_id, NodeId from, NodeId to) {
    Seg& s = segs[seg_id];
    if (s.a == from) {
      s.a = to;
    } else {
      CDST_ASSERT(s.b == from);
      s.b = to;
    }
    auto& fs = nodes[from].segs;
    fs.erase(std::find(fs.begin(), fs.end(), seg_id));
    nodes[to].segs.push_back(seg_id);
  };

  // Terminals: move all real segments to a twin, keep one zero-seg.
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    const bool is_terminal = nodes[n].kind != NodeKind::kSteiner;
    if (!is_terminal || nodes[n].segs.size() <= 1) continue;
    const NodeId twin = add_twin(n);
    const std::vector<std::uint32_t> moved = nodes[n].segs;
    for (const std::uint32_t sid : moved) move_seg_endpoint(sid, n, twin);
    add_zero_seg(n, twin);
  }
  // Internal degree cap: chain twins while degree > 3.
  for (NodeId n = 0; n < nodes.size(); ++n) {
    while (nodes[n].kind == NodeKind::kSteiner && nodes[n].segs.size() > 3) {
      const NodeId twin = add_twin(n);
      // Move all but two segments to the twin; the zero-seg link uses the
      // third slot on n and one slot on the twin.
      std::vector<std::uint32_t> keep(nodes[n].segs.begin(),
                                      nodes[n].segs.begin() + 2);
      std::vector<std::uint32_t> moved(nodes[n].segs.begin() + 2,
                                       nodes[n].segs.end());
      for (const std::uint32_t sid : moved) move_seg_endpoint(sid, n, twin);
      add_zero_seg(n, twin);
    }
  }

  // --- Orient as arborescence from the root (BFS over segments). ----------
  SteinerTree out;
  const std::size_t nn = nodes.size();
  std::vector<std::int32_t> order(nn, -1);  // node -> output index
  std::vector<NodeId> queue;
  queue.push_back(root_);
  order[root_] = 0;

  out.nodes.resize(nn);
  out.nodes[0].graph_vertex = nodes[root_].v;
  out.nodes[0].parent = -1;
  out.nodes[0].kind = NodeKind::kRoot;
  out.nodes[0].sink_index = -1;

  std::int32_t next_index = 1;
  for (std::size_t qi = 0; qi < queue.size(); ++qi) {
    const NodeId cur = queue[qi];
    const std::int32_t cur_out = order[cur];
    for (const std::uint32_t sid : nodes[cur].segs) {
      const Seg& s = segs[sid];
      const NodeId nb = (s.a == cur) ? s.b : s.a;
      if (order[nb] != -1) continue;  // parent side (or cycle: caught below)
      order[nb] = next_index;
      SteinerTree::Node& rec = out.nodes[static_cast<std::size_t>(next_index)];
      rec.graph_vertex = nodes[nb].v;
      rec.parent = cur_out;
      rec.kind = nodes[nb].kind;
      rec.sink_index = nodes[nb].sink_index;
      // Path from child (nb) up to parent (cur).
      rec.up_path = s.edges;
      if (s.a == cur) std::reverse(rec.up_path.begin(), rec.up_path.end());
      ++next_index;
      queue.push_back(nb);
    }
  }
  CDST_CHECK_MSG(static_cast<std::size_t>(next_index) == nn,
                 "tree structure is disconnected");
  CDST_CHECK_MSG(queue.size() == nn && segs.size() == nn - 1,
                 "tree structure contains a cycle");

  out.children.assign(nn, {});
  for (std::size_t i = 1; i < nn; ++i) {
    out.children[static_cast<std::size_t>(out.nodes[i].parent)].push_back(
        static_cast<std::int32_t>(i));
  }
  return out;
}

}  // namespace cdst
