/// \file sharding.h
/// Deterministic spatial sharding of a netlist over the routing grid.
///
/// A sharded rip-up & re-route round (RouterOptions::shards >= 1) tiles the
/// gcell plane into a lattice of near-square tiles — one shard per tile —
/// and assigns every net to the tile containing its bounding-box center.
/// Shards are the router's unit of parallel work: a lane claims a shard and
/// routes its nets against the round's frozen committed usage, so
/// neighbouring nets (which share cache-resident grid regions) mostly stay
/// on one core, while distant shards fan out across the ThreadPool and idle
/// lanes steal spans of unfinished shards (ShardStealSchedule).
///
/// The assignment is a pure function of (grid extent, netlist, shard
/// count): deterministic, a partition of the netlist (every net in exactly
/// one shard, ascending net order within a shard — asserted by the property
/// tests), and independent of thread count. Because sharded rounds price
/// every net from the same frozen usage and merge updates in net
/// order at the round barrier, routing *results* are additionally
/// independent of the shard count itself (see api/router.h).

#pragma once

#include <atomic>
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

/// Dynamic (work-stealing) execution schedule over a frozen ShardMap.
///
/// The *partition* never changes — determinism lives in the fixed net ->
/// shard assignment plus the router's net-order merge barrier — only the
/// execution order of its pieces is dynamic (the divide-and-conquer
/// discipline of Emirov/Song/Sun, arXiv:2510.01511). Three levels:
///
///  1. Whole shards are claimed by an atomic claim index; the claiming lane
///     is the shard's *owner* and drains it in net spans.
///  2. Within a shard, spans of consecutive nets are claimed from a
///     per-shard atomic cursor, so several lanes can drain one hot shard.
///  3. A lane whose claim index is exhausted *steals* spans from unfinished
///     shards (highest remaining first would need a scan per steal; the
///     rotating probe below is contention-free and within a few percent).
///
/// Every net is claimed exactly once, so the outcome array the lanes fill
/// does not depend on how spans interleave; the merge barrier then commits
/// in net order, keeping results bit-identical at any lane count. Per-shard
/// steal/wait counters feed RouterShardEvent.
///
/// The schedule is single-round, single-attempt state: construct fresh per
/// fan-out (a retry constructs one over the shards still pending).
/// Thread-safe; no lock anywhere.
class ShardStealSchedule {
 public:
  /// Nets per claimed span: small enough to rebalance a hot shard, large
  /// enough that the cursor's cache line does not thrash.
  static constexpr std::uint32_t kSpanNets = 4;

  /// A claimed span: nets[begin, end) of `shard` (indices into
  /// ShardMap::nets[shard]). `stolen` marks a non-owner claim.
  struct Span {
    int shard{-1};
    std::uint32_t begin{0};
    std::uint32_t end{0};
    bool stolen{false};
    bool valid() const { return shard >= 0; }
  };

  /// `done[sh] != 0` marks shards a previous attempt already completed;
  /// they are never claimed, stolen from, or re-counted.
  ShardStealSchedule(const ShardMap& map, const std::vector<std::uint8_t>& done);

  /// Claims ownership of the next pending shard; -1 once every shard has an
  /// owner (switch to steal_span then).
  int claim_shard();

  /// Claims the next span of a shard's nets; invalid once the cursor is
  /// drained (other lanes may still be routing claimed spans).
  Span take_span(int shard, bool stolen);

  /// Probes unfinished shards (rotating start) for a span to steal. Invalid
  /// only when no unclaimed net remains anywhere. Probes that find a shard
  /// drained-but-incomplete (its nets all claimed, some still in flight on
  /// other lanes) count as that shard's steal waits.
  Span steal_span();

  /// Records a routed span; true exactly once per shard, when this span
  /// completes it — the caller owns the shard-completion event.
  bool complete(const Span& s);

  std::size_t stolen_nets(int shard) const {
    return shards_[static_cast<std::size_t>(shard)].stolen.load(
        std::memory_order_relaxed);
  }
  std::size_t steal_waits(int shard) const {
    return shards_[static_cast<std::size_t>(shard)].waits.load(
        std::memory_order_relaxed);
  }

 private:
  struct PerShard {
    /// Next unclaimed net index within the shard; lanes fetch_add spans off
    /// it. Cache-line aligned: the hot shard's cursor is the one contended
    /// word of the whole schedule.
    alignas(64) std::atomic<std::uint32_t> cursor{0};
    std::atomic<std::uint32_t> remaining{0};  ///< routed-net countdown
    std::atomic<std::size_t> stolen{0};       ///< nets routed by non-owners
    std::atomic<std::size_t> waits{0};        ///< drained-shard steal probes
  };

  const ShardMap* map_;
  std::vector<PerShard> shards_;
  std::atomic<std::uint32_t> next_claim_{0};
  std::atomic<std::uint32_t> steal_hint_{0};  ///< rotating probe start
};

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
