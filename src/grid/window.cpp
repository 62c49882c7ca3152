#include "grid/window.h"

#include <algorithm>

#include "util/fault_injection.h"

namespace cdst {

RoutingWindow::RoutingWindow(const RoutingGrid& grid,
                             const CongestionCosts& costs, Rect box,
                             const SparseMap<double>* excluded_usage) {
  rebuild(grid, costs, box, excluded_usage);
}

void RoutingWindow::rebuild(const RoutingGrid& grid,
                            const CongestionCosts& costs, Rect box,
                            const SparseMap<double>* excluded_usage) {
  // The per-net allocation site: the planes below grow here when a lane
  // meets a larger box than any before.
  CDST_FAULT_POINT("window.rebuild");
  grid_ = &grid;
  box = clip(grid, box);
  CDST_CHECK_MSG(!box.empty(), "routing window does not intersect the grid");
  box_ = box;

  const std::int32_t nz = grid.nz();
  layers_.resize(static_cast<std::size_t>(nz));
  for (std::int32_t z = 0; z < nz; ++z) {
    const LayerSpec& l = grid.layers()[static_cast<std::size_t>(z)];
    layers_[static_cast<std::size_t>(z)] =
        BoxLayer{l.dir == LayerDir::kHorizontal,
                 static_cast<std::uint32_t>(l.wire_types.size())};
  }
  graph_.assign(static_cast<std::int32_t>(box.width()) + 1,
                static_cast<std::int32_t>(box.height()) + 1, layers_);

  // Every plane is appended in id order rather than resized and then
  // overwritten: one pass over memory a fresh window first-touches.
  positions_.clear();
  positions_.reserve(graph_.num_vertices());
  for (std::int32_t z = 0; z < nz; ++z) {
    for (std::int32_t y = box_.ylo; y <= box_.yhi; ++y) {
      for (std::int32_t x = box_.xlo; x <= box_.xhi; ++x) {
        positions_.push_back(Point3{x, y, z});
      }
    }
  }

  // The planes, in window-edge order, one box row at a time. Along a row
  // the grid's wire ids step by one boundary of wire types and its via ids
  // by one, and so do their resources. Unit costs and delays are uniform
  // per layer and wire type (LayerSpec), so the row's first boundary and
  // via supply them for the whole row. Each price is edge_cost's
  // unit_cost * price(resource), read now, or edge_cost_excluding for a
  // resource the net's own usage occupies.
  costs_.clear();
  costs_.reserve(graph_.num_edges());
  delays_.clear();
  delays_.reserve(graph_.num_edges());
  const std::vector<double>& gd = grid.edge_delays();
  // Price of grid edge ge on resource r with unit cost `unit`.
  const auto price = [&](EdgeId ge, ResourceId r, float unit) {
    CDST_ASSERT(grid.edge_info(ge).resource == r);
    CDST_ASSERT(grid.edge_info(ge).unit_cost == unit);
    const double* excluded =
        excluded_usage != nullptr ? excluded_usage->find(r) : nullptr;
    return excluded == nullptr ? unit * costs.price(r)
                               : costs.edge_cost_excluding(ge, *excluded);
  };
  graph_.for_each_row([&](const BoxRow& row) {
    const auto z = static_cast<std::int32_t>(row.z);
    const std::int32_t y = box_.ylo + static_cast<std::int32_t>(row.j);
    const std::uint32_t nw = row.wire_types;
    CDST_ASSERT(costs_.size() == row.first);
    EdgeId gw0 = 0;
    ResourceId rw0 = 0;
    if (row.wired > 0) {
      gw0 = grid.wire_edge(box_.xlo, y, z, 0);
      rw0 = grid.wire_resource(box_.xlo, y, z);
    }
    EdgeId gv0 = 0;
    ResourceId rv0 = 0;
    float uv = 0.0f;
    double dv = 0.0;
    if (row.via) {
      gv0 = grid.via_edge(box_.xlo, y, z);
      rv0 = grid.via_resource(box_.xlo, y, z);
      uv = grid.edge_info(gv0).unit_cost;
      dv = gd[gv0];
    }
    for (std::uint32_t i = 0; i < graph_.wx(); ++i) {
      if (i < row.wired) {
        for (std::uint32_t w = 0; w < nw; ++w) {
          costs_.push_back(price(gw0 + i * nw + w, rw0 + i,
                                 grid.edge_info(gw0 + w).unit_cost));
          delays_.push_back(gd[gw0 + w]);
        }
      }
      if (row.via) {
        costs_.push_back(price(gv0 + i, rv0 + i, uv));
        delays_.push_back(dv);
      }
    }
  });
}

Rect RoutingWindow::clip(const RoutingGrid& grid, Rect box) {
  box.xlo = std::max(box.xlo, 0);
  box.ylo = std::max(box.ylo, 0);
  box.xhi = std::min(box.xhi, grid.nx() - 1);
  box.yhi = std::min(box.yhi, grid.ny() - 1);
  return box;
}

EdgeId RoutingWindow::to_grid_edge(EdgeId we) const {
  const BoxEdgeSite s = graph_.site(we);
  const std::int32_t x = box_.xlo + static_cast<std::int32_t>(s.i);
  const std::int32_t y = box_.ylo + static_cast<std::int32_t>(s.j);
  const auto z = static_cast<std::int32_t>(s.z);
  return s.via ? grid_->via_edge(x, y, z) : grid_->wire_edge(x, y, z, s.w);
}

VertexId RoutingWindow::from_grid_vertex(VertexId gv) const {
  const Point3 p = grid_->positions()[gv];
  if (!box_.contains(p.xy())) return kInvalidVertex;
  return graph_.vertex(static_cast<std::uint32_t>(p.x - box_.xlo),
                       static_cast<std::uint32_t>(p.y - box_.ylo),
                       static_cast<std::uint32_t>(p.z));
}

std::vector<EdgeId> RoutingWindow::to_grid_edges(
    const std::vector<EdgeId>& wes) const {
  std::vector<EdgeId> out;
  out.reserve(wes.size());
  for (const EdgeId we : wes) out.push_back(to_grid_edge(we));
  return out;
}

Graph RoutingWindow::materialize() const {
  // Copy edges whose endpoints both lie in the window. Iterating grid arcs
  // from each window vertex visits each such edge twice; keep tail < head.
  GraphBuilder builder(graph_.num_vertices());
  const Graph& gg = grid_->graph();
  const std::vector<Point3>& gpos = grid_->positions();
  for (VertexId wv = 0; wv < graph_.num_vertices(); ++wv) {
    const VertexId gv = to_grid_vertex(wv);
    for (const Graph::Arc& a : gg.arcs(gv)) {
      if (a.to < gv) continue;  // visit once
      if (!box_.contains(gpos[a.to].xy())) continue;
      builder.add_edge(wv, from_grid_vertex(a.to));
    }
  }
  return Graph(builder);
}

}  // namespace cdst
