#include "grid/window.h"

#include <algorithm>

namespace cdst {

RoutingWindow::RoutingWindow(const RoutingGrid& grid,
                             const CongestionCosts& costs, Rect box,
                             const RoundPricing* pricing) {
  rebuild(grid, costs, box, pricing);
}

void RoutingWindow::rebuild(const RoutingGrid& grid,
                            const CongestionCosts& costs, Rect box,
                            const RoundPricing* pricing) {
  grid_ = &grid;
  box = clip(grid, box);
  CDST_CHECK_MSG(!box.empty(), "routing window does not intersect the grid");
  box_ = box;
  wx_ = static_cast<std::int32_t>(box.width()) + 1;
  wy_ = static_cast<std::int32_t>(box.height()) + 1;

  const std::int32_t nz = grid.nz();
  const std::size_t wn = static_cast<std::size_t>(wx_) * wy_ * nz;
  to_grid_vertex_.resize(wn);
  positions_.resize(wn);

  auto wvertex = [&](std::int32_t x, std::int32_t y, std::int32_t z) {
    return static_cast<VertexId>(
        (static_cast<std::int64_t>(z) * wy_ + (y - box_.ylo)) * wx_ +
        (x - box_.xlo));
  };

  for (std::int32_t z = 0; z < nz; ++z) {
    for (std::int32_t y = box_.ylo; y <= box_.yhi; ++y) {
      for (std::int32_t x = box_.xlo; x <= box_.xhi; ++x) {
        const VertexId wv = wvertex(x, y, z);
        to_grid_vertex_[wv] = grid.vertex_at(x, y, z);
        positions_[wv] = Point3{x, y, z};
      }
    }
  }

  // Copy edges whose endpoints both lie in the window. Iterating grid arcs
  // from each window vertex visits each such edge twice; keep tail < head.
  builder_.clear(wn);
  to_grid_edge_.clear();
  const Graph& gg = grid.graph();
  const std::vector<Point3>& gpos = grid.positions();
  for (VertexId wv = 0; wv < wn; ++wv) {
    const VertexId gv = to_grid_vertex_[wv];
    for (const Graph::Arc& a : gg.arcs(gv)) {
      if (a.to < gv) continue;  // visit once
      const Point3 pu = gpos[a.to];
      if (!box_.contains(pu.xy())) continue;
      const VertexId wu = wvertex(pu.x, pu.y, pu.z);
      builder_.add_edge(wv, wu);
      to_grid_edge_.push_back(a.edge);
    }
  }
  graph_.build(builder_);

  const std::size_t wm = to_grid_edge_.size();
  costs_.resize(wm);
  delays_.resize(wm);
  layer_of_.resize(wm);
  const std::vector<double>& gd = grid.edge_delays();
  for (std::size_t e = 0; e < wm; ++e) {
    const EdgeId ge = to_grid_edge_[e];
    if (pricing == nullptr) {
      costs_[e] = costs.edge_cost(ge);
    } else {
      // Frozen round snapshot: only the net's own resources re-price, with
      // its committed usage excluded.
      const double* excluded =
          pricing->excluded_usage != nullptr
              ? pricing->excluded_usage->find(grid.edge_info(ge).resource)
              : nullptr;
      costs_[e] = excluded == nullptr
                      ? pricing->edge_costs[ge]
                      : costs.edge_cost_excluding(ge, *excluded);
    }
    delays_[e] = gd[ge];
    layer_of_[e] = grid.edge_info(ge).layer;
  }
  // Borrowed per-edge spans: costs_/delays_ are members with exactly the
  // view's lifetime (and vector buffers survive window moves), so only the
  // derived per-arc strips are materialized.
  arc_costs_.assign_borrowed(graph_, costs_, delays_, layer_of_);
}

Rect RoutingWindow::clip(const RoutingGrid& grid, Rect box) {
  box.xlo = std::max(box.xlo, 0);
  box.ylo = std::max(box.ylo, 0);
  box.xhi = std::min(box.xhi, grid.nx() - 1);
  box.yhi = std::min(box.yhi, grid.ny() - 1);
  return box;
}

VertexId RoutingWindow::from_grid_vertex(VertexId gv) const {
  const Point3 p = grid_->positions()[gv];
  if (!box_.contains(p.xy())) return kInvalidVertex;
  return static_cast<VertexId>(
      (static_cast<std::int64_t>(p.z) * wy_ + (p.y - box_.ylo)) * wx_ +
      (p.x - box_.xlo));
}

std::vector<EdgeId> RoutingWindow::to_grid_edges(
    const std::vector<EdgeId>& wes) const {
  std::vector<EdgeId> out;
  out.reserve(wes.size());
  for (const EdgeId we : wes) out.push_back(to_grid_edge_[we]);
  return out;
}

}  // namespace cdst
