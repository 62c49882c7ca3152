/// \file dist/shard_executor.h
/// Executes one shard's routing work from the wire messages alone — the
/// compute half every ShardTransport placement shares.
///
/// A ShardContext is the materialized WorkerSetupMsg: the rebuilt grid,
/// netlist and knobs, plus a process-local dense-state budget pool and the
/// recycled execution lanes. Both worker processes (dist/worker_main.cpp)
/// and the in-process loopback transport create one and then call
/// execute_shard per ShardWorkMsg — one span of a shard's nets.
///
/// Bit-identity contract: execute_shard(make_shard_context(setup),
/// snapshot, work) produces exactly the routes/delays the in-process
/// sharded round (api/router.cpp) computes for the same nets, because every
/// input the oracles read — frozen snapshot prices, the net's committed
/// route and the frozen usage of its resources, sink weights, the per-net
/// round seed (route/sharding.h net_round_seed) — travels in the messages,
/// and everything else (dense/sparse state placement, scratch history) is
/// result-invariant by the solver's own contracts.

#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "api/scratch_pool.h"
#include "api/status.h"
#include "core/cost_distance.h"
#include "dist/wire.h"
#include "grid/cost_model.h"
#include "grid/routing_grid.h"
#include "route/net.h"
#include "route/steiner_oracle.h"
#include "util/sparse_map.h"

namespace cdst::dist {

/// One recycled execution lane of a ShardContext. `costs` is a zero-usage
/// CongestionCosts: execute_shard replays a net's frozen usage into it and
/// restores zero on every exit path, so a leased lane prices exactly like a
/// freshly built one. The rest is per-net working state whose contents
/// never influence results.
struct ShardLane {
  ShardLane(const RoutingGrid& grid, const CongestionParams& params)
      : costs(grid, params) {}

  CongestionCosts costs;
  SolverScratch scratch;
  OracleInstance oracle;  ///< rebuilt in place for each net
  SparseMap<double> excluded;
};

/// The round-invariant execution state of one setup message. Create via
/// make_shard_context; safe to share across concurrent execute_shard calls
/// (each call leases its own lane; the budget pool is atomic).
struct ShardContext {
  RoutingGrid grid;
  Netlist netlist;
  SteinerMethod method;
  OracleParams oracle;
  CongestionParams congestion;
  std::uint64_t options_seed;
  /// Process-local twin of the Router session's shared dense-state pool,
  /// sized from oracle.cd.dense_state_budget_bytes. Whether a solve lands
  /// dense or sparse never changes results, so each process budgeting
  /// independently preserves bit-identity.
  DenseStateBudget dense_budget;
  /// Grows to the execute_shard concurrency high-water mark; a lane's
  /// grid-sized state is built once, not per dispatch.
  detail::LanePool<ShardLane> lanes;

  explicit ShardContext(const WorkerSetupMsg& setup)
      : grid(setup.nx, setup.ny, setup.layers, setup.via),
        netlist(setup.netlist),
        method(setup.method),
        oracle(setup.oracle),
        congestion(setup.congestion),
        options_seed(setup.options_seed),
        dense_budget(setup.oracle.cd.dense_state_budget_bytes) {}

  ShardContext(const ShardContext&) = delete;
  ShardContext& operator=(const ShardContext&) = delete;
};

/// Validates the setup (grid geometry buildable, congestion parameters
/// legal, every net pin inside the grid, pointer knobs absent) and
/// materializes it. kInvalidArgument on any violation — the context build
/// must never trip a contract check on wire-supplied data.
StatusOr<std::unique_ptr<ShardContext>> make_shard_context(
    const WorkerSetupMsg& setup);

/// Routes the work's nets (one span of a shard) against the frozen round
/// snapshot and returns their deltas in work order. `snapshot` must hold
/// one price per grid edge (a parsed PriceSnapshotMsg for the work's
/// round); the work's net indexes, routes and resources are validated
/// against the context before any oracle runs. Thread-safe for one shared
/// context (see ShardContext); results do not depend on which lane, or
/// which earlier work, a call recycles.
StatusOr<ShardResultMsg> execute_shard(ShardContext& ctx,
                                       std::span<const double> snapshot,
                                       const ShardWorkMsg& work);

}  // namespace cdst::dist
