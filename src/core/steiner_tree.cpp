#include "core/steiner_tree.h"

#include <algorithm>

namespace cdst {

std::vector<EdgeId> SteinerTree::all_edges() const {
  std::size_t m = 0;
  for (const Node& n : nodes) m += n.up_path.size();
  std::vector<EdgeId> out;
  out.reserve(m);
  for (const Node& n : nodes) {
    out.insert(out.end(), n.up_path.begin(), n.up_path.end());
  }
  return out;
}

void SteinerTree::validate(const EdgeEndpoints& g, std::size_t num_sinks,
                           bool allow_shared_edges) const {
  TreeValidator().validate(*this, g, num_sinks, allow_shared_edges);
}

void TreeValidator::validate(const SteinerTree& tree, const EdgeEndpoints& g,
                             std::size_t num_sinks, bool allow_shared_edges) {
  const std::vector<SteinerTree::Node>& nodes = tree.nodes;
  const std::vector<std::vector<std::int32_t>>& children = tree.children;
  CDST_CHECK(!nodes.empty());
  CDST_CHECK(nodes[0].parent == -1);
  CDST_CHECK(nodes[0].kind == NodeKind::kRoot);
  CDST_CHECK(children.size() == nodes.size());

  std::vector<int>& sink_seen = sink_seen_;
  std::vector<std::size_t>& out_degree = out_degree_;
  sink_seen.assign(num_sinks, 0);
  out_degree.assign(nodes.size(), 0);
  // The bitset is all-zero between calls unless a throw cut a walk short.
  if (dirty_) std::fill(used_edges_.begin(), used_edges_.end(), 0);
  const std::size_t words = (g.num_edges() + 63) / 64;
  if (used_edges_.size() < words) used_edges_.resize(words, 0);
  dirty_ = true;

  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const SteinerTree::Node& n = nodes[i];
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
        CDST_CHECK_MSG(mark_edge(e) || allow_shared_edges,
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
  // Every edge walked is in range, so clearing them restores the all-zero
  // bitset in O(tree edges).
  for (const SteinerTree::Node& n : nodes) {
    for (const EdgeId e : n.up_path) {
      used_edges_[e >> 6] &= ~(std::uint64_t{1} << (e & 63));
    }
  }
  dirty_ = false;

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

void TreeAssembler::reset(const EdgeEndpoints& g) {
  graph_ = g;
  // Every location key is a node's vertex or a vertex of a live segment
  // (splits move vertices between segments, never drop them), so clearing
  // costs the size of the last tree, not the map's capacity.
  loc_.clear_covering([this](auto&& visit) {
    for (std::size_t i = 0; i < num_nodes_; ++i) visit(nodes_[i].v);
    for (std::size_t i = 0; i < num_segs_; ++i) {
      for (const VertexId v : segs_[i].verts) visit(v);
    }
  });
  num_nodes_ = 0;
  num_segs_ = 0;
  root_ = kNoNode;
}

TreeAssembler::NodeId TreeAssembler::new_node(VertexId v, NodeKind kind,
                                              std::int32_t sink_index) {
  if (num_nodes_ == nodes_.size()) nodes_.emplace_back();
  NodeRec& r = nodes_[num_nodes_];
  r.v = v;
  r.kind = kind;
  r.sink_index = sink_index;
  r.segs.clear();
  const auto id = static_cast<NodeId>(num_nodes_++);
  // Terminals always own their vertex location; later writers (segments
  // passing through) may overwrite, which is fine — see node_at().
  loc_[v] = Loc{id, 0xffffffffu, 0};
  return id;
}

TreeAssembler::Seg& TreeAssembler::spare_seg(NodeId a, NodeId b) {
  if (num_segs_ == segs_.size()) segs_.emplace_back();
  Seg& s = segs_[num_segs_];
  s.a = a;
  s.b = b;
  s.edges.clear();
  s.verts.clear();
  return s;
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
  CDST_ASSERT(offset > 0 && offset + 1 < segs_[seg_id].verts.size());
  const VertexId v = segs_[seg_id].verts[offset];
  const NodeId mid = new_node(v, NodeKind::kSteiner, -1);

  // Tail half becomes a new segment mid -> b. Taking the spare record may
  // grow segs_, so the head's reference is formed after it.
  const NodeId old_b = segs_[seg_id].b;
  Seg& tail = spare_seg(mid, old_b);
  Seg& s = segs_[seg_id];
  tail.edges.assign(s.edges.begin() + offset, s.edges.end());
  tail.verts.assign(s.verts.begin() + offset, s.verts.end());
  const auto tail_id = static_cast<std::uint32_t>(num_segs_++);

  // Head half: a -> mid (shrink in place).
  s.b = mid;
  s.edges.resize(offset);
  s.verts.resize(offset + 1);

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
  CDST_CHECK(a < num_nodes_ && b < num_nodes_);
  if (a == b) {
    CDST_CHECK_MSG(path.empty(), "non-empty segment with equal endpoints");
    return;
  }
  // Built in the spare record and committed only once the path checks out,
  // so a rejected path leaves the structure as it was.
  Seg& s = spare_seg(a, b);
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

  const auto seg_id = static_cast<std::uint32_t>(num_segs_++);
  nodes_[a].segs.push_back(seg_id);
  nodes_[b].segs.push_back(seg_id);
  reindex_segment(seg_id);
}

SteinerTree TreeAssembler::finalize() {
  CDST_CHECK_MSG(root_ != kNoNode, "no root added");

  // Work on a copy so normalization can restructure. The copies live in
  // recycled members; segments carry only their endpoints and a reference
  // to the assembled segment whose edges they embed.
  std::vector<NodeRec>& nodes = fin_nodes_;
  std::vector<FinSeg>& segs = fin_segs_;
  std::size_t nn = 0;  // live records in `nodes`
  auto acquire_node = [&](VertexId v, NodeKind kind,
                          std::int32_t sink_index) -> NodeId {
    if (nn == nodes.size()) nodes.emplace_back();
    NodeRec& r = nodes[nn];
    r.v = v;
    r.kind = kind;
    r.sink_index = sink_index;
    r.segs.clear();
    return static_cast<NodeId>(nn++);
  };
  for (std::size_t i = 0; i < num_nodes_; ++i) {
    const NodeRec& src = nodes_[i];
    const NodeId id = acquire_node(src.v, src.kind, src.sink_index);
    nodes[id].segs.assign(src.segs.begin(), src.segs.end());
  }
  segs.clear();
  for (std::size_t i = 0; i < num_segs_; ++i) {
    segs.push_back(
        FinSeg{segs_[i].a, segs_[i].b, static_cast<std::uint32_t>(i)});
  }

  // --- Normalize: terminals must be leaves, internal degree <= 3. ---------
  // A terminal (root/sink) with degree k > (root ? 1 : 1 if attached ... )
  // keeps no segment; all its segments move to a stacked Steiner twin,
  // connected by a zero-length segment. Internal nodes with > 3 segments
  // split off extra segments onto twins chained at the same position.
  auto add_twin = [&](NodeId n) -> NodeId {
    return acquire_node(nodes[n].v, NodeKind::kSteiner, -1);
  };
  auto add_zero_seg = [&](NodeId a, NodeId b) {
    const auto id = static_cast<std::uint32_t>(segs.size());
    segs.push_back(FinSeg{a, b, kNoSeg});
    nodes[a].segs.push_back(id);
    nodes[b].segs.push_back(id);
  };
  auto move_seg_endpoint = [&](std::uint32_t seg_id, NodeId from, NodeId to) {
    FinSeg& s = segs[seg_id];
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
  std::vector<std::uint32_t>& moved = fin_moved_;
  for (NodeId n = 0; n < num_nodes_; ++n) {
    const bool is_terminal = nodes[n].kind != NodeKind::kSteiner;
    if (!is_terminal || nodes[n].segs.size() <= 1) continue;
    const NodeId twin = add_twin(n);
    moved.assign(nodes[n].segs.begin(), nodes[n].segs.end());
    for (const std::uint32_t sid : moved) move_seg_endpoint(sid, n, twin);
    add_zero_seg(n, twin);
  }
  // Internal degree cap: chain twins while degree > 3.
  for (NodeId n = 0; n < nn; ++n) {
    while (nodes[n].kind == NodeKind::kSteiner && nodes[n].segs.size() > 3) {
      const NodeId twin = add_twin(n);
      // Move all but two segments to the twin; the zero-seg link uses the
      // third slot on n and one slot on the twin.
      moved.assign(nodes[n].segs.begin() + 2, nodes[n].segs.end());
      for (const std::uint32_t sid : moved) move_seg_endpoint(sid, n, twin);
      add_zero_seg(n, twin);
    }
  }

  // --- Orient as arborescence from the root (BFS over segments). ----------
  SteinerTree out;
  std::vector<std::int32_t>& order = fin_order_;  // node -> output index
  std::vector<NodeId>& queue = fin_queue_;
  order.assign(nn, -1);
  queue.clear();
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
      const FinSeg& s = segs[sid];
      const NodeId nb = (s.a == cur) ? s.b : s.a;
      if (order[nb] != -1) continue;  // parent side (or cycle: caught below)
      order[nb] = next_index;
      SteinerTree::Node& rec = out.nodes[static_cast<std::size_t>(next_index)];
      rec.graph_vertex = nodes[nb].v;
      rec.parent = cur_out;
      rec.kind = nodes[nb].kind;
      rec.sink_index = nodes[nb].sink_index;
      // Path from child (nb) up to parent (cur); edges run a -> b.
      if (s.src != kNoSeg) {
        const std::vector<EdgeId>& edges = segs_[s.src].edges;
        if (s.a == cur) {
          rec.up_path.assign(edges.rbegin(), edges.rend());
        } else {
          rec.up_path.assign(edges.begin(), edges.end());
        }
      }
      ++next_index;
      queue.push_back(nb);
    }
  }
  CDST_CHECK_MSG(static_cast<std::size_t>(next_index) == nn,
                 "tree structure is disconnected");
  CDST_CHECK_MSG(queue.size() == nn && segs.size() == nn - 1,
                 "tree structure contains a cycle");

  // Children lists sized exactly, so each is one allocation.
  std::vector<std::uint32_t>& child_count = fin_child_count_;
  child_count.assign(nn, 0);
  for (std::size_t i = 1; i < nn; ++i) {
    ++child_count[static_cast<std::size_t>(out.nodes[i].parent)];
  }
  out.children.resize(nn);
  for (std::size_t i = 0; i < nn; ++i) {
    if (child_count[i] != 0) out.children[i].reserve(child_count[i]);
  }
  for (std::size_t i = 1; i < nn; ++i) {
    out.children[static_cast<std::size_t>(out.nodes[i].parent)].push_back(
        static_cast<std::int32_t>(i));
  }
  return out;
}

}  // namespace cdst
