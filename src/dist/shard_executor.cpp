#include "dist/shard_executor.h"

#include <string>
#include <utility>

#include "grid/window.h"
#include "route/sharding.h"
#include "util/assert.h"
#include "util/fault_injection.h"

namespace cdst::dist {
namespace {

bool in_grid(const Point3& p, const RoutingGrid& grid) {
  return p.x >= 0 && p.x < grid.nx() && p.y >= 0 && p.y < grid.ny() &&
         p.z >= 0 && p.z < grid.nz();
}

}  // namespace

StatusOr<std::unique_ptr<ShardContext>> make_shard_context(
    const WorkerSetupMsg& setup) {
  if (setup.nx < 1 || setup.ny < 1 || setup.layers.empty()) {
    return Status::InvalidArgument("shard context: degenerate grid geometry");
  }
  for (const LayerSpec& layer : setup.layers) {
    if (layer.wire_types.empty()) {
      return Status::InvalidArgument(
          "shard context: layer without wire types");
    }
  }
  if (!(setup.congestion.price_at_full > 1.0)) {
    return Status::InvalidArgument(
        "shard context: congestion price_at_full must be > 1");
  }
  // The setup deliberately cannot carry pointers (dist/wire.h); a parsed
  // message always satisfies this, but a hand-built one must too, because
  // the context wires in its own budget pool below.
  if (setup.oracle.cd.future_cost != nullptr ||
      setup.oracle.cd.shared_dense_budget != nullptr) {
    return Status::InvalidArgument(
        "shard context: pointer-valued solver knobs cannot cross the wire");
  }
  try {
    auto ctx = std::make_unique<ShardContext>(setup);
    for (const Net& net : ctx->netlist.nets) {
      if (!in_grid(net.source, ctx->grid)) {
        return Status::InvalidArgument("shard context: net source off-grid");
      }
      for (const SinkPin& sink : net.sinks) {
        if (!in_grid(sink.pos, ctx->grid)) {
          return Status::InvalidArgument("shard context: net sink off-grid");
        }
      }
    }
    return ctx;
  } catch (const ContractViolation& e) {
    return Status::InvalidArgument(
        std::string("shard context: grid build rejected setup: ") + e.what());
  } catch (const std::exception& e) {
    return Status::Internal(e.what());
  }
}

StatusOr<ShardResultMsg> execute_shard(ShardContext& ctx,
                                       std::span<const double> snapshot,
                                       const ShardWorkMsg& work) {
  const std::size_t num_edges = ctx.grid.graph().num_edges();
  const std::size_t num_resources = ctx.grid.num_resources();
  if (snapshot.size() != num_edges) {
    return Status::InvalidArgument(
        "shard work: price snapshot does not match the setup grid");
  }
  // Validate the whole chunk before running any oracle: wire-supplied
  // indexes must never reach a contract check, and a half-executed chunk
  // would waste work the caller is about to retry anyway.
  for (const ShardWorkMsg::NetWork& nw : work.nets) {
    if (nw.net >= ctx.netlist.nets.size()) {
      return Status::InvalidArgument("shard work: net index out of range");
    }
    const Net& net = ctx.netlist.nets[nw.net];
    if (net.sinks.empty()) {
      return Status::InvalidArgument(
          "shard work: sink-less nets have no round work");
    }
    if (nw.sink_weights.size() != net.sinks.size()) {
      return Status::InvalidArgument(
          "shard work: sink weight count does not match the net");
    }
    for (const std::uint32_t e : nw.route_edges) {
      if (e >= num_edges) {
        return Status::InvalidArgument(
            "shard work: committed route edge out of range");
      }
    }
    if (nw.usage.size() != nw.resources.size()) {
      return Status::InvalidArgument(
          "shard work: frozen usage count does not match the resources");
    }
    for (const std::uint32_t res : nw.resources) {
      if (res >= num_resources) {
        return Status::InvalidArgument(
            "shard work: frozen resource id out of range");
      }
    }
  }

  try {
    // A leased lane: execute_shard runs concurrently against one shared
    // context, and the frozen usage replay below mutates the lane's costs.
    const detail::LanePool<ShardLane>::Lease lease =
        ctx.lanes.lease(ctx.grid, ctx.congestion);
    ShardLane& lane = *lease.get();
    CongestionCosts& costs = lane.costs;
    SparseMap<double>& excluded = lane.excluded;

    ShardResultMsg result;
    result.round = work.round;
    result.shard = work.shard;
    result.nets.reserve(work.nets.size());
    for (const ShardWorkMsg::NetWork& nw : work.nets) {
      const Net& net = ctx.netlist.nets[nw.net];
      // The net prices against the snapshot minus its own committed usage —
      // identical to the in-process shard loop, except the live usage of
      // the net's resources arrives frozen on the wire instead of sitting
      // in the session's CongestionCosts.
      excluded.clear();
      for (const EdgeId e : nw.route_edges) {
        const RoutingGrid::EdgeInfo& info = ctx.grid.edge_info(e);
        excluded[info.resource] += info.width;
      }
      // Restores the lane's zero-usage state on every exit, exceptions
      // included: each net's pricing depends only on its own frozen
      // resources, and the lane outlives this call.
      struct UsageReset {
        CongestionCosts& costs;
        const std::vector<std::uint32_t>& resources;
        ~UsageReset() {
          for (const std::uint32_t res : resources) costs.set_usage(res, 0.0);
        }
      } usage_reset{costs, nw.resources};
      for (std::size_t k = 0; k < nw.resources.size(); ++k) {
        costs.set_usage(nw.resources[k], nw.usage[k]);
      }
      const RoundPricing pricing{
          snapshot, nw.route_edges.empty() ? nullptr : &excluded};
      OracleParams p = ctx.oracle;
      p.seed = net_round_seed(ctx.options_seed, net.id, work.round);
      if (p.cd.shared_dense_budget == nullptr) {
        p.cd.shared_dense_budget = &ctx.dense_budget;
      }
      lane.oracle.rebuild(ctx.grid, costs, net, nw.sink_weights, p, &pricing);
      OracleOutcome out = run_method(lane.oracle, ctx.method, p, &lane.scratch);

      ShardResultMsg::NetResult nr;
      nr.net = nw.net;
      result.route_edges_total += out.grid_edges.size();
      for (const EdgeId e : out.grid_edges) {
        result.snapshot_cost_total += snapshot[e];
      }
      nr.route_edges = std::move(out.grid_edges);
      nr.sink_delays = std::move(out.eval.sink_delays);
      result.nets.push_back(std::move(nr));
    }
    return result;
  } catch (const InjectedFault& e) {
    return Status::Unavailable(e.what());
  } catch (const BudgetExhausted& e) {
    return detail::resource_exhausted_status(e.what());
  } catch (const ContractViolation& e) {
    return Status::InvalidArgument(e.what());
  } catch (const std::exception& e) {
    return Status::Internal(e.what());
  }
}

}  // namespace cdst::dist
