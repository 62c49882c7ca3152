#include "graph/box_graph.h"

namespace cdst {

void BoxGraph::assign(std::int32_t wx, std::int32_t wy,
                      std::span<const BoxLayer> layers) {
  CDST_CHECK(wx >= 1 && wy >= 1 && !layers.empty());
  wx_ = static_cast<std::uint32_t>(wx);
  wy_ = static_cast<std::uint32_t>(wy);
  const std::uint64_t plane = static_cast<std::uint64_t>(wx_) * wy_;
  CDST_CHECK_MSG(plane * layers.size() < (1ull << 31),
                 "box too large for 32-bit vertex ids");
  plane_ = static_cast<std::uint32_t>(plane);
  layers_.resize(layers.size());
  std::uint64_t first = 0;
  std::uint32_t widest = 0;
  std::uint32_t cls = 0;
  for (std::size_t z = 0; z < layers.size(); ++z) {
    Layer& l = layers_[z];
    CDST_CHECK(layers[z].wire_types >= 1);
    l.first = static_cast<EdgeId>(first);
    l.cls = cls;
    l.wire_types = layers[z].wire_types;
    l.horizontal = layers[z].horizontal;
    l.via = z + 1 < layers.size() ? 1 : 0;
    l.owned = l.wire_types + l.via;
    l.step = l.horizontal ? 1 : wx_;
    l.row = l.horizontal ? (wx_ - 1) * l.wire_types + wx_ * l.via
                         : wx_ * l.owned;
    const std::uint64_t wires =
        l.horizontal ? static_cast<std::uint64_t>(wx_ - 1) * wy_
                     : static_cast<std::uint64_t>(wx_) * (wy_ - 1);
    first += wires * l.wire_types + plane * l.via;
    CDST_CHECK_MSG(first < 0xffffffffull, "box too large for 32-bit edge ids");
    widest = std::max(widest, l.wire_types);
    cls += l.owned;
  }
  num_edges_ = static_cast<std::size_t>(first);
  num_classes_ = cls;
  max_degree_ = 2 + 2 * widest;
}

BoxEdgeSite BoxGraph::site(EdgeId e) const {
  CDST_ASSERT(e < num_edges_);
  // The last layer whose first owned edge is <= e; empty layers share their
  // successor's start, so upper_bound skips past them.
  const auto it = std::upper_bound(
      layers_.begin(), layers_.end(), e,
      [](EdgeId x, const Layer& l) { return x < l.first; });
  const auto z = static_cast<std::uint32_t>(it - layers_.begin()) - 1;
  const Layer& l = layers_[z];
  const std::uint32_t k = e - l.first;
  BoxEdgeSite s;
  s.z = z;
  if (!l.horizontal && k >= (wy_ - 1) * l.row) {
    // The last row of a vertical layer owns vias only.
    s.j = wy_ - 1;
    s.i = k - (wy_ - 1) * l.row;
    s.via = true;
  } else {
    s.j = k / l.row;
    const std::uint32_t rem = k - s.j * l.row;
    s.i = rem / l.owned;
    const std::uint32_t off = rem - s.i * l.owned;
    const bool wires = !l.horizontal || s.i + 1 < wx_;
    if (wires && off < l.wire_types) {
      s.w = off;
    } else {
      s.via = true;
    }
  }
  s.slot = 2 * vertex(s.i, s.j, s.z) + (s.via ? 1 : 0);
  s.cls = l.cls + (s.via ? l.wire_types : s.w);
  return s;
}

}  // namespace cdst
