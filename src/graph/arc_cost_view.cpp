#include "graph/arc_cost_view.h"

#include <cstdint>

#include "util/assert.h"

namespace cdst {

void ArcCostView::build_arcs(const Graph& g,
                             std::span<const double> edge_cost) {
  CDST_CHECK(edge_cost.size() == g.num_edges());
  graph_ = &g;

  const std::span<const EdgeId> arc_edges = g.arc_edges();
  const std::size_t na = arc_edges.size();
  num_arcs_ = na;
  // kRelaxStrip zero doubles of tail padding: a full-width Vec4d load at the
  // last partial strip stays inside the allocation. resize() retains
  // capacity across rebuilds, so the pad is re-zeroed explicitly (a shrink
  // would otherwise leave stale attribute values there).
  arc_cost_.resize(na + kRelaxStrip);
  CDST_ASSERT(reinterpret_cast<std::uintptr_t>(arc_cost_.data()) %
                  kVecAlign ==
              0);
  for (std::size_t a = 0; a < na; ++a) arc_cost_[a] = edge_cost[arc_edges[a]];
  for (std::size_t a = na; a < na + kRelaxStrip; ++a) arc_cost_[a] = 0.0;
}

void ArcCostView::assign(const Graph& g, std::span<const double> edge_cost) {
  build_arcs(g, edge_cost);
  edge_cost_store_.assign(edge_cost.begin(), edge_cost.end());
  edge_cost_view_ = edge_cost_store_;
}

void ArcCostView::assign_borrowed(const Graph& g,
                                  std::span<const double> edge_cost) {
  build_arcs(g, edge_cost);
  edge_cost_store_.clear();
  edge_cost_view_ = edge_cost;
}

}  // namespace cdst
