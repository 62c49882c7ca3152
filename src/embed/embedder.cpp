#include "embed/embedder.h"

#include <algorithm>
#include <limits>

#include "graph/dijkstra.h"

namespace cdst {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

EmbedResult embed_topology(const PlaneTopology& topo,
                           const CostDistanceInstance& instance,
                           const SolveControls* controls) {
  instance.validate();
  CDST_CHECK_MSG(instance.graph != nullptr,
                 "embedding needs an explicit CSR graph (materialize the "
                 "window first)");
  topo.validate(instance.sinks.size());
  const std::atomic<bool>* cancel =
      controls != nullptr ? controls->cancel : nullptr;
  const auto poll_cancel = [cancel] {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      throw SolveCancelled();
    }
  };
  poll_cancel();
  const Graph& g = *instance.graph;
  const std::vector<double>& c = *instance.cost;
  const std::vector<double>& d = *instance.delay;
  const std::size_t n = g.num_vertices();
  const std::size_t nn = topo.nodes.size();
  const auto ch = topo.children();

  // Subtree delay weights.
  std::vector<double> subw(nn, 0.0);
  for (std::size_t i = nn; i-- > 0;) {
    if (topo.nodes[i].sink_index >= 0) {
      subw[i] +=
          instance.sinks[static_cast<std::size_t>(topo.nodes[i].sink_index)]
              .weight;
    }
    if (topo.nodes[i].parent >= 0) {
      subw[static_cast<std::size_t>(topo.nodes[i].parent)] += subw[i];
    }
  }

  // Bottom-up DP: each node's table F_i is transient — it seeds one
  // potential Dijkstra whose result (up[i]) is kept for backtracking.
  std::vector<DijkstraResult> up(nn);  // up[i]: propagation of F[i] (i != 0)
  double root_value = kInf;

  for (std::size_t i = nn; i-- > 0;) {
    // One full-graph Dijkstra per node makes the node loop the natural
    // cancellation granularity (bounded latency: one propagation).
    poll_cancel();
    // F_i = sum of child propagations, constrained to the pin vertex if i is
    // a terminal.
    std::vector<double> fi;
    if (ch[i].empty()) {
      fi.assign(n, kInf);
    } else {
      fi.assign(n, 0.0);
      for (const std::int32_t cc : ch[i]) {
        const std::vector<double>& gu = up[static_cast<std::size_t>(cc)].dist;
        for (std::size_t v = 0; v < n; ++v) fi[v] += gu[v];
      }
    }
    const std::int32_t si = topo.nodes[i].sink_index;
    if (si >= 0) {
      const VertexId pin =
          instance.sinks[static_cast<std::size_t>(si)].vertex;
      const double at_pin = ch[i].empty() ? 0.0 : fi[pin];
      fi.assign(n, kInf);
      fi[pin] = at_pin;
    }
    if (i == 0) {
      // Root: a topology's root node is pinned to the root vertex.
      root_value = ch[i].empty() ? kInf : fi[instance.root];
      break;
    }
    // Propagate upward under the weighted metric c + W_i * d.
    up[i] = dijkstra_from_potentials(g, fi, CostDelayLength{c, d, subw[i]});
  }
  CDST_CHECK_MSG(root_value < kInf,
                 "topology cannot be embedded: graph disconnected");

  // ---- Backtrack: place nodes top-down and collect embedded paths. -------
  TreeAssembler assembler(g);
  std::vector<TreeAssembler::NodeId> anode(nn, TreeAssembler::kNoNode);
  std::vector<VertexId> placed(nn, kInvalidVertex);
  placed[0] = instance.root;
  anode[0] = assembler.add_root(instance.root);

  for (std::size_t i = 1; i < nn; ++i) {
    const auto p = static_cast<std::size_t>(topo.nodes[i].parent);
    CDST_ASSERT(placed[p] != kInvalidVertex);
    // Walk the propagation parents from the parent's placement back to the
    // seed vertex: that seed is node i's optimal placement.
    const DijkstraResult& r = up[i];
    VertexId at = placed[p];
    CDST_CHECK_MSG(r.reached(at), "embedding backtrack hit unreached vertex");
    // Walking the parent chain from the parent's placement yields edges in
    // parent -> seed order; the segment wants child (= seed) -> parent.
    std::vector<EdgeId> path_up;
    while (r.parent_edge[at] != kInvalidEdge) {
      path_up.push_back(r.parent_edge[at]);
      at = r.parent[at];
    }
    std::reverse(path_up.begin(), path_up.end());
    placed[i] = at;

    const std::int32_t si = topo.nodes[i].sink_index;
    anode[i] = (si >= 0) ? assembler.add_sink(at, si) : assembler.add_steiner(at);
    assembler.add_segment(anode[i], anode[p], path_up);
  }

  EmbedResult out;
  out.tree = assembler.finalize();
  out.tree.validate(g, instance.sinks.size(), /*allow_shared_edges=*/true);
  out.eval = evaluate_tree(out.tree, instance);
  return out;
}

}  // namespace cdst
