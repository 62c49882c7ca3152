/// \file sharding.h
/// Deterministic spatial sharding of a netlist over the routing grid.
///
/// A sharded rip-up & re-route round (RouterOptions::shards >= 1) tiles the
/// gcell plane into a lattice of near-square tiles — one shard per tile —
/// and assigns every net to the tile containing its bounding-box center.
/// The router executes each shard in spans of kSpanNets consecutive nets,
/// all priced against the round's frozen committed usage; the spans of
/// every shard run on the ThreadPool heaviest first (api/router.cpp), and
/// a span is also the unit a transport dispatches (dist/transport.h).
///
/// The assignment is a pure function of (grid extent, netlist, shard
/// count): deterministic, a partition of the netlist (every net in exactly
/// one shard, ascending net order within a shard — asserted by the property
/// tests), and independent of thread count. Because sharded rounds price
/// every net from the same frozen usage and merge updates in net
/// order at the round barrier, routing *results* are additionally
/// independent of the shard count itself (see api/router.h).

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "grid/routing_grid.h"
#include "route/net.h"

namespace cdst {

/// The tile lattice of one shard configuration.
struct ShardGrid {
  std::int32_t tiles_x{1};
  std::int32_t tiles_y{1};
  std::int32_t nx{1};  ///< gcell extent the lattice covers
  std::int32_t ny{1};

  int num_shards() const { return tiles_x * tiles_y; }

  /// Tile (= shard) index of a plane point, clamped into the lattice.
  int shard_of(Point2 p) const;
};

/// Chooses a tiles_x x tiles_y factorization of `shards` whose tile aspect
/// best matches the grid's, so tiles stay near-square (compact windows,
/// balanced occupancy). Deterministic; exact: tiles_x * tiles_y == shards.
ShardGrid make_shard_grid(const RoutingGrid& grid, int shards);

/// Geometry of one shard's tile: its lattice coordinates and the half-open
/// gcell range [x0, x1) x [y0, y1) it covers. The inverse of
/// ShardGrid::shard_of (up to its clamping), used by the router's shard
/// boundary events so observers can localize a shard on the die.
struct ShardTile {
  std::int32_t tx{0};  ///< tile column in [0, tiles_x)
  std::int32_t ty{0};  ///< tile row in [0, tiles_y)
  std::int32_t x0{0};
  std::int32_t y0{0};
  std::int32_t x1{0};
  std::int32_t y1{0};
};

ShardTile shard_tile(const ShardGrid& tiles, int shard);

/// Net -> shard partition of a netlist.
struct ShardMap {
  ShardGrid tiles;
  /// Net indices per shard, ascending within each shard. Every net of the
  /// netlist appears in exactly one shard (including sink-less nets, which
  /// the router later skips).
  std::vector<std::vector<std::uint32_t>> nets;

  std::size_t total_nets() const {
    std::size_t n = 0;
    for (const auto& s : nets) n += s.size();
    return n;
  }
};

/// Assigns every net to the shard of its bounding-box center (source and
/// sink pins). Pure function of its arguments; thread-free.
ShardMap assign_nets_to_shards(const RoutingGrid& grid,
                               const Netlist& netlist, int shards);

/// Nets per span, the unit a sharded round executes: up to kSpanNets
/// consecutive nets of one shard's list (api/router.cpp), in process or as
/// one transport dispatch. Small enough that the heaviest-first order
/// balances the pool's lanes across unequal shards, large enough that a
/// transport ships few, well-filled messages.
inline constexpr std::uint32_t kSpanNets = 4;

/// The oracle seed for one net in one round: a pure function of
/// (session seed, net id, round index), so any executor — the in-process
/// round loop or an out-of-process shard worker (dist/) — derives the same
/// per-net randomness and routing stays bit-identical across placements.
inline std::uint64_t net_round_seed(std::uint64_t options_seed,
                                    std::uint32_t net_id, int round) {
  return options_seed * 0x9e3779b9ull + net_id * 1000003ull +
         static_cast<std::uint64_t>(round);
}

}  // namespace cdst
