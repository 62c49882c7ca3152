#include "route/sharding.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geom/rect.h"
#include "util/assert.h"

namespace cdst {

int ShardGrid::shard_of(Point2 p) const {
  const auto tile = [](std::int32_t v, std::int32_t extent,
                       std::int32_t tiles) {
    // v in [0, extent) maps linearly onto [0, tiles); clamp guards callers
    // passing points at (or beyond) the extent edge.
    const std::int64_t t = static_cast<std::int64_t>(v) * tiles / extent;
    return static_cast<std::int32_t>(
        std::clamp<std::int64_t>(t, 0, tiles - 1));
  };
  const std::int32_t tx = tile(p.x, nx, tiles_x);
  const std::int32_t ty = tile(p.y, ny, tiles_y);
  return ty * tiles_x + tx;
}

ShardGrid make_shard_grid(const RoutingGrid& grid, int shards) {
  CDST_CHECK(shards >= 1);
  ShardGrid sg;
  sg.nx = grid.nx();
  sg.ny = grid.ny();
  // Among the exact factorizations tiles_x * tiles_y == shards, pick the one
  // whose tile aspect ratio (in gcells) is closest to square; ties resolve
  // to the smaller tiles_x, so the choice is deterministic.
  double best_score = std::numeric_limits<double>::infinity();
  for (int d = 1; d <= shards; ++d) {
    if (shards % d != 0) continue;
    const int tx = d;
    const int ty = shards / d;
    const double tile_w = static_cast<double>(sg.nx) / tx;
    const double tile_h = static_cast<double>(sg.ny) / ty;
    const double score = std::abs(std::log(tile_w / tile_h));
    if (score < best_score) {
      best_score = score;
      sg.tiles_x = tx;
      sg.tiles_y = ty;
    }
  }
  return sg;
}

ShardTile shard_tile(const ShardGrid& tiles, int shard) {
  CDST_CHECK(shard >= 0 && shard < tiles.num_shards());
  ShardTile t;
  t.tx = shard % tiles.tiles_x;
  t.ty = shard / tiles.tiles_x;
  // Inverse of shard_of's linear map v * tiles / extent: tile k covers
  // v in [ceil(k * extent / tiles), ceil((k+1) * extent / tiles)).
  const auto lo = [](std::int32_t k, std::int32_t extent, std::int32_t n) {
    const std::int64_t num = static_cast<std::int64_t>(k) * extent;
    return static_cast<std::int32_t>((num + n - 1) / n);
  };
  t.x0 = lo(t.tx, tiles.nx, tiles.tiles_x);
  t.x1 = lo(t.tx + 1, tiles.nx, tiles.tiles_x);
  t.y0 = lo(t.ty, tiles.ny, tiles.tiles_y);
  t.y1 = lo(t.ty + 1, tiles.ny, tiles.tiles_y);
  return t;
}

ShardMap assign_nets_to_shards(const RoutingGrid& grid,
                               const Netlist& netlist, int shards) {
  ShardMap map;
  map.tiles = make_shard_grid(grid, shards);
  map.nets.assign(static_cast<std::size_t>(map.tiles.num_shards()), {});
  for (std::uint32_t i = 0; i < netlist.nets.size(); ++i) {
    const Net& net = netlist.nets[i];
    Rect box;
    box.expand(net.source.xy());
    for (const SinkPin& s : net.sinks) box.expand(s.pos.xy());
    const Point2 center{(box.xlo + box.xhi) / 2, (box.ylo + box.yhi) / 2};
    map.nets[static_cast<std::size_t>(map.tiles.shard_of(center))]
        .push_back(i);
  }
  return map;
}

}  // namespace cdst
