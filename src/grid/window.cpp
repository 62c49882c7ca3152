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
  // The per-net allocation site: the slot plane grows here when a lane
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

  // The class table, in BoxGraph's class order: per layer its wire types,
  // then its via up. The grid stores unit costs and delays as floats
  // (RoutingGrid::EdgeInfo); widening the same floats here is what makes
  // unit[class] * price equal edge_cost and delay[class] equal
  // edge_delays() bit for bit.
  unit_.clear();
  delay_.clear();
  for (std::int32_t z = 0; z < nz; ++z) {
    for (const WireType& wt : grid.layers()[static_cast<std::size_t>(z)]
                                  .wire_types) {
      unit_.push_back(static_cast<float>(wt.unit_cost));
      delay_.push_back(static_cast<float>(wt.delay_per_gcell));
    }
    if (z + 1 < nz) {
      unit_.push_back(static_cast<float>(grid.via().unit_cost));
      delay_.push_back(static_cast<float>(grid.via().delay));
    }
  }
  CDST_ASSERT(unit_.size() == graph_.num_classes());

  // The slot plane, one box row at a time: along a row the grid's boundary
  // resources and its via resources both step by one. Each slot holds
  // price(resource), read now; slots a gcell does not own hold 0.
  if (price_.size() < graph_.num_slots()) price_.resize(graph_.num_slots());
  const std::uint32_t wx = graph_.wx();
  graph_.for_each_row([&](const BoxRow& row) {
    const auto z = static_cast<std::int32_t>(row.z);
    const std::int32_t y = box_.ylo + static_cast<std::int32_t>(row.j);
    double* out = price_.data() + 2 * static_cast<std::size_t>(row.first);
    const ResourceId rw0 =
        row.wired > 0 ? grid.wire_resource(box_.xlo, y, z) : 0;
    const ResourceId rv0 = row.via ? grid.via_resource(box_.xlo, y, z) : 0;
    for (std::uint32_t i = 0; i < wx; ++i) {
      out[2 * i] = i < row.wired ? costs.price(rw0 + i) : 0.0;
      out[2 * i + 1] = row.via ? costs.price(rv0 + i) : 0.0;
    }
  });

  // The net's own usage, priced out where the window holds its resource
  // (price_excluding): a handful of resources, visited from the map rather
  // than probed for every slot. A wire boundary belongs to the window only
  // if the gcell it leads to does too.
  if (excluded_usage == nullptr) return;
  excluded_usage->for_each([&](ResourceId r, double excluded) {
    const RoutingGrid::ResourceSite s = grid.resource_site(r);
    if (!box_.contains(Point2{s.x, s.y})) return;
    if (!s.via) {
      const bool horizontal =
          grid.layers()[static_cast<std::size_t>(s.z)].dir ==
          LayerDir::kHorizontal;
      if (horizontal ? s.x == box_.xhi : s.y == box_.yhi) return;
    }
    const VertexId v = graph_.vertex(static_cast<std::uint32_t>(s.x - box_.xlo),
                                     static_cast<std::uint32_t>(s.y - box_.ylo),
                                     static_cast<std::uint32_t>(s.z));
    price_[2 * static_cast<std::size_t>(v) + (s.via ? 1 : 0)] =
        costs.price_excluding(r, excluded);
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
    std::vector<EdgeId> wes) const {
  for (EdgeId& e : wes) e = to_grid_edge(e);
  return wes;
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
