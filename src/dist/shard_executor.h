/// \file dist/shard_executor.h
/// Executes one shard's routing work from the wire messages alone — the
/// compute half every ShardTransport placement shares.
///
/// A ShardContext is the materialized WorkerSetupMsg: the rebuilt grid,
/// netlist and knobs, one CongestionCosts holding the loaded round's usage,
/// a process-local dense-state budget pool and the recycled oracle lanes.
/// Both worker processes (dist/worker_main.cpp) and the in-process loopback
/// transport create one, call load_snapshot once per round and then
/// execute_shard per ShardWorkMsg — one span of a shard's nets.
///
/// Bit-identity contract: execute_shard on a context loaded with a round's
/// PriceSnapshotMsg produces exactly the routes/delays the in-process
/// sharded round (api/router.cpp) computes for the same nets. Both call
/// route_round_net (route/steiner_oracle.h) with the same inputs: the
/// loaded usage gives every resource the price the session's does (the
/// same refresh on the same double), and the net's committed route, sink
/// weights and round index travel in the work. Everything else (dense or
/// sparse state placement, lane history) is result-invariant by the
/// solver's own contracts.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "api/scratch_pool.h"
#include "api/status.h"
#include "core/cost_distance.h"
#include "dist/wire.h"
#include "grid/cost_model.h"
#include "grid/routing_grid.h"
#include "route/net.h"
#include "route/steiner_oracle.h"

namespace cdst::dist {

/// The execution state of one setup message. Create via make_shard_context.
/// execute_shard calls may share a context concurrently (each leases its
/// own lane; the budget pool is atomic); load_snapshot must not overlap
/// them, which the transport contract guarantees (begin_round is never
/// concurrent with dispatch).
struct ShardContext {
  RoutingGrid grid;
  Netlist netlist;
  SteinerMethod method;
  OracleParams oracle;
  std::uint64_t options_seed;
  /// The loaded round's committed usage, priced: every net of the round
  /// prices from it, and nothing mutates it before the next load.
  CongestionCosts costs;
  /// The round `costs` holds; empty before the first load and after a
  /// failed one.
  std::optional<std::int32_t> round;
  /// Process-local twin of the Router session's shared dense-state pool,
  /// sized from oracle.cd.dense_state_budget_bytes. Whether a solve lands
  /// dense or sparse never changes results, so each process budgeting
  /// independently preserves bit-identity.
  DenseStateBudget dense_budget;
  /// Grows to the execute_shard concurrency high-water mark.
  detail::LanePool<OracleLane> lanes;

  explicit ShardContext(const WorkerSetupMsg& setup)
      : grid(setup.nx, setup.ny, setup.layers, setup.via),
        netlist(setup.netlist),
        method(setup.method),
        oracle(setup.oracle),
        options_seed(setup.options_seed),
        costs(grid, setup.congestion),
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

/// Loads one round's committed usage into the context. The usage comes from
/// a pipe, so it is checked first: one value per resource of the setup
/// grid, each finite and >= 0. Otherwise kInvalidArgument, and the context
/// holds no round until a later load succeeds.
Status load_snapshot(ShardContext& ctx, const PriceSnapshotMsg& snapshot);

/// Routes the work's nets (one span of a shard) against the loaded round
/// and returns their deltas in work order. kFailedPrecondition unless the
/// context holds the work's round. The work's net indexes, routes and sink
/// weights are validated against the context before any oracle runs.
/// Thread-safe for one shared context (see ShardContext); results do not
/// depend on which lane, or which earlier work, a call recycles.
StatusOr<ShardResultMsg> execute_shard(ShardContext& ctx,
                                       const ShardWorkMsg& work);

}  // namespace cdst::dist
