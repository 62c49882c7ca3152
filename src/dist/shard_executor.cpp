#include "dist/shard_executor.h"

#include <cmath>
#include <string>
#include <utility>

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

Status load_snapshot(ShardContext& ctx, const PriceSnapshotMsg& snapshot) {
  ctx.round.reset();
  if (snapshot.usage.size() != ctx.costs.num_resources()) {
    return Status::InvalidArgument(
        "price snapshot: usage count does not match the setup grid");
  }
  // set_usage would floor NaN to 0 without a word, and +inf would make
  // every price on its resource infinite.
  for (const double u : snapshot.usage) {
    if (!std::isfinite(u) || u < 0.0) {
      return Status::InvalidArgument(
          "price snapshot: usage must be finite and non-negative");
    }
  }
  for (ResourceId r = 0; r < snapshot.usage.size(); ++r) {
    ctx.costs.set_usage(r, snapshot.usage[r]);
  }
  ctx.round = snapshot.round;
  return Status::Ok();
}

StatusOr<ShardResultMsg> execute_shard(ShardContext& ctx,
                                       const ShardWorkMsg& work) {
  if (ctx.round != work.round) {
    return Status::FailedPrecondition(
        "shard work: no price snapshot loaded for this round");
  }
  const std::size_t num_edges = ctx.grid.graph().num_edges();
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
  }

  try {
    const detail::LanePool<OracleLane>::Lease lease = ctx.lanes.lease();
    ShardResultMsg result;
    result.round = work.round;
    result.shard = work.shard;
    result.nets.reserve(work.nets.size());
    for (const ShardWorkMsg::NetWork& nw : work.nets) {
      OracleOutcome out = route_round_net(
          *lease.get(), ctx.grid, ctx.costs, ctx.netlist.nets[nw.net],
          nw.sink_weights, nw.route_edges, ctx.method, ctx.oracle,
          ctx.options_seed, work.round, &ctx.dense_budget,
          /*controls=*/nullptr);
      ShardResultMsg::NetResult nr;
      nr.net = nw.net;
      nr.route_edges = std::move(out.grid_edges);
      nr.sink_delays = std::move(out.eval.sink_delays);
      result.nets.push_back(std::move(nr));
    }
    return result;
  } catch (const InjectedFault& e) {
    return Status::Unavailable(e.what());
  } catch (const ContractViolation& e) {
    return Status::InvalidArgument(e.what());
  } catch (const std::exception& e) {
    return Status::Internal(e.what());
  }
}

}  // namespace cdst::dist
