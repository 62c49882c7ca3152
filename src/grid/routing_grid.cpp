#include "grid/routing_grid.h"

#include <algorithm>
#include <limits>

namespace cdst {

RoutingGrid::RoutingGrid(std::int32_t nx, std::int32_t ny,
                         std::vector<LayerSpec> layers, ViaSpec via)
    : nx_(nx), ny_(ny), layers_(std::move(layers)), via_(via) {
  CDST_CHECK(nx_ >= 1 && ny_ >= 1);
  CDST_CHECK_MSG(!layers_.empty(), "grid needs at least one layer");
  for (const LayerSpec& l : layers_) {
    CDST_CHECK_MSG(!l.wire_types.empty(),
                   "layer " + l.name + " has no wire types");
  }
  build();
}

void RoutingGrid::build() {
  const std::int64_t nz = static_cast<std::int64_t>(layers_.size());
  const std::int64_t verts = static_cast<std::int64_t>(nx_) * ny_ * nz;
  CDST_CHECK_MSG(verts < (1ll << 31), "grid too large for 32-bit vertex ids");

  GraphBuilder builder(static_cast<std::size_t>(verts));
  edge_info_.clear();
  resource_capacity_.clear();

  min_unit_cost_ = std::numeric_limits<double>::infinity();
  min_unit_delay_ = std::numeric_limits<double>::infinity();

  auto new_resource = [&](double capacity) {
    resource_capacity_.push_back(capacity);
    return static_cast<ResourceId>(resource_capacity_.size() - 1);
  };

  // The per-layer numbering wire_edge()/wire_resource() read; the loops
  // below emit edges and resources in exactly that order and check it.
  numbering_.assign(static_cast<std::size_t>(nz) + 1, LayerNumbering{});
  for (std::int32_t z = 0; z < nz; ++z) {
    const LayerSpec& layer = layers_[z];
    const bool horizontal = layer.dir == LayerDir::kHorizontal;
    LayerNumbering& l = numbering_[z];
    l.row = static_cast<std::uint32_t>(horizontal ? nx_ - 1 : nx_);
    l.rows = static_cast<std::uint32_t>(horizontal ? ny_ : ny_ - 1);
    l.wire_types = static_cast<std::uint32_t>(layer.wire_types.size());
    numbering_[z + 1].first_edge = l.first_edge + l.row * l.rows * l.wire_types;
    numbering_[z + 1].first_resource = l.first_resource + l.row * l.rows;
  }

  // Intra-layer wiring edges.
  for (std::int32_t z = 0; z < nz; ++z) {
    const LayerSpec& layer = layers_[z];
    for (const WireType& wt : layer.wire_types) {
      min_unit_cost_ = std::min(min_unit_cost_, wt.unit_cost);
      min_unit_delay_ = std::min(min_unit_delay_, wt.delay_per_gcell);
    }
    const bool horizontal = layer.dir == LayerDir::kHorizontal;
    const std::int32_t step_count_x = horizontal ? nx_ - 1 : nx_;
    const std::int32_t step_count_y = horizontal ? ny_ : ny_ - 1;
    for (std::int32_t y = 0; y < step_count_y; ++y) {
      for (std::int32_t x = 0; x < step_count_x; ++x) {
        const VertexId a = vertex_at(x, y, z);
        const VertexId b =
            horizontal ? vertex_at(x + 1, y, z) : vertex_at(x, y + 1, z);
        const ResourceId res = new_resource(layer.capacity);
        CDST_ASSERT(res == wire_resource(x, y, z));
        for (std::size_t w = 0; w < layer.wire_types.size(); ++w) {
          const WireType& wt = layer.wire_types[w];
          const EdgeId e = builder.add_edge(a, b);
          CDST_ASSERT(static_cast<std::size_t>(e) == edge_info_.size());
          CDST_ASSERT(e == wire_edge(x, y, z, static_cast<std::uint32_t>(w)));
          (void)e;
          edge_info_.push_back(EdgeInfo{res, static_cast<float>(wt.width),
                                        static_cast<float>(wt.unit_cost),
                                        static_cast<float>(wt.delay_per_gcell),
                                        static_cast<std::uint8_t>(z),
                                        static_cast<std::uint8_t>(w), false});
        }
      }
    }
  }

  CDST_ASSERT(resource_capacity_.size() == num_wire_resources());

  // Via edges between adjacent layers; one resource per gcell stack segment.
  for (std::int32_t z = 0; z + 1 < nz; ++z) {
    for (std::int32_t y = 0; y < ny_; ++y) {
      for (std::int32_t x = 0; x < nx_; ++x) {
        const VertexId a = vertex_at(x, y, z);
        const VertexId b = vertex_at(x, y, z + 1);
        // Via capacity scales with the smaller of the adjacent layers.
        const double cap =
            std::min(layers_[z].capacity, layers_[z + 1].capacity);
        const ResourceId res = new_resource(cap);
        CDST_ASSERT(res == via_resource(x, y, z));
        const EdgeId e = builder.add_edge(a, b);
        CDST_ASSERT(static_cast<std::size_t>(e) == edge_info_.size());
        CDST_ASSERT(e == via_edge(x, y, z));
        (void)e;
        edge_info_.push_back(EdgeInfo{res, static_cast<float>(via_.width),
                                      static_cast<float>(via_.unit_cost),
                                      static_cast<float>(via_.delay),
                                      static_cast<std::uint8_t>(z), 0, true});
      }
    }
  }

  graph_ = Graph(builder);

  delays_.resize(edge_info_.size());
  base_costs_.resize(edge_info_.size());
  // Recompute the per-unit minima from the float-rounded stored values so
  // that future-cost lower bounds stay admissible against actual edge sums.
  min_unit_cost_ = std::numeric_limits<double>::infinity();
  min_unit_delay_ = std::numeric_limits<double>::infinity();
  for (std::size_t e = 0; e < edge_info_.size(); ++e) {
    delays_[e] = edge_info_[e].delay;
    base_costs_[e] = edge_info_[e].unit_cost;
    if (!edge_info_[e].is_via) {
      min_unit_cost_ = std::min(min_unit_cost_, base_costs_[e]);
      min_unit_delay_ = std::min(min_unit_delay_, delays_[e]);
    }
  }

  // Finalize the static SoA cost plane alongside the graph. base_costs_ is
  // a member sharing the view's lifetime (vector buffers survive grid
  // moves), so the per-edge array is borrowed.
  arc_costs_.assign_borrowed(graph_, base_costs_);

  positions_.resize(graph_.num_vertices());
  for (VertexId v = 0; v < positions_.size(); ++v) {
    positions_[v] = position(v);
  }
}

std::vector<LayerSpec> make_default_layer_stack(int num_layers,
                                                double base_capacity) {
  CDST_CHECK(num_layers >= 2);
  std::vector<LayerSpec> layers;
  layers.reserve(static_cast<std::size_t>(num_layers));
  for (int z = 0; z < num_layers; ++z) {
    LayerSpec l;
    l.name = "M" + std::to_string(z + 1);
    l.dir = (z % 2 == 0) ? LayerDir::kHorizontal : LayerDir::kVertical;
    // Lower layers: dense and slow. Upper layers: fewer tracks per gcell in
    // real stacks, but gcell capacity is roughly constant; delays fall
    // steeply with height (thicker metal).
    const double tier = static_cast<double>(z) / std::max(1, num_layers - 1);
    l.capacity = base_capacity * (z == 0 ? 0.4 : 1.0);
    // ~25 um gcells: resistance falls steeply with metal height (thicker,
    // wider wires up top); capacitance per unit length is roughly constant.
    l.r_per_gcell = 400.0 * (1.0 - 0.95 * tier) + 8.0;  // ohm/gcell
    l.c_per_gcell = 5.0;                                // fF/gcell

    WireType narrow;
    narrow.name = l.name + ".w1";
    narrow.width = 1.0;
    narrow.unit_cost = 1.0;
    // Placeholder delay; overwritten by timing::apply_delay_model, and a
    // sensible default (slower low layers) for grid-only tests.
    narrow.delay_per_gcell = 8.0 * (1.0 - 0.8 * tier) + 1.0;
    l.wire_types.push_back(narrow);

    if (z >= num_layers / 2) {
      WireType wide;
      wide.name = l.name + ".w2";
      wide.width = 2.0;
      wide.unit_cost = 2.0;
      wide.delay_per_gcell = narrow.delay_per_gcell * 0.6;
      l.wire_types.push_back(wide);
    }
    layers.push_back(std::move(l));
  }
  return layers;
}

}  // namespace cdst
