#include "graph/graph.h"

namespace cdst {

Graph::Graph(const GraphBuilder& b) {
  tails_ = b.tails_;
  heads_ = b.heads_;
  const std::size_t n = b.num_vertices_;
  const std::size_t m = tails_.size();

  // Degrees counted one slot up, then prefix-summed: offsets_[v] is the
  // first arc of v.
  offsets_.assign(n + 1, 0);
  for (std::size_t e = 0; e < m; ++e) {
    ++offsets_[tails_[e] + 1];
    ++offsets_[heads_[e] + 1];
  }
  for (std::size_t v = 0; v < n; ++v) offsets_[v + 1] += offsets_[v];

  // offsets_[v] doubles as v's fill cursor, so after the fill it holds the
  // end of v's arcs, which is the start of v + 1's. Shifting every entry
  // one slot back restores the starts.
  arcs_.resize(2 * m);
  for (std::size_t e = 0; e < m; ++e) {
    const auto id = static_cast<EdgeId>(e);
    arcs_[offsets_[tails_[e]]++] = Arc{id, heads_[e]};
    arcs_[offsets_[heads_[e]]++] = Arc{id, tails_[e]};
  }
  for (std::size_t v = n; v > 0; --v) offsets_[v] = offsets_[v - 1];
  offsets_[0] = 0;

  // The SoA arc plane: same arc order, split into contiguous per-attribute
  // arrays so search kernels scan strips instead of striding over Arc pairs.
  arc_heads_.resize(arcs_.size());
  arc_edges_.resize(arcs_.size());
  for (std::size_t a = 0; a < arcs_.size(); ++a) {
    arc_heads_[a] = arcs_[a].to;
    arc_edges_[a] = arcs_[a].edge;
  }
}

}  // namespace cdst
