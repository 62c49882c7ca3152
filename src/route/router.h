/// \file router.h
/// Timing-constrained global router.
///
/// A simplified version of the resource-sharing / Lagrangean-relaxation
/// framework of [13] (Held et al., "Global Routing With Timing Constraints"):
/// edges are priced exponentially in their utilization, nets are routed by a
/// Steiner oracle against those prices, and per-sink delay weights — the
/// Lagrange multipliers of the timing constraints — are updated
/// multiplicatively from slacks between rounds. The cost-distance Steiner
/// tree problem "arises as the Lagrangean subproblem" (Section IV); this
/// router generates exactly those instances and is the harness behind
/// Tables IV and V.

#pragma once

#include "grid/cost_model.h"
#include "route/metrics.h"
#include "route/net.h"
#include "route/steiner_oracle.h"
#include "timing/slack.h"

namespace cdst {

namespace dist {
class ShardTransport;
}  // namespace dist

struct RouterOptions {
  SteinerMethod method{SteinerMethod::kCD};
  OracleParams oracle;
  CongestionParams congestion;
  std::uint64_t seed{1};
  /// Worker threads for the per-net oracle calls. Batched rounds rip each
  /// batch up, route its nets in parallel against the usage as it then
  /// stands, and commit it; sharded rounds (below) do the same per round.
  /// Results are deterministic and independent of the thread count (the
  /// paper's runs use 16 threads).
  /// Only honored by self-owned sessions: a session vended by an Engine
  /// (api/engine.h) runs on the engine's shared pool, which decides
  /// concurrency — Engine::make_router warns on a conflicting request and
  /// rewrites this field to the pool's actual lane count. Because every
  /// batch and round commits at a deterministic barrier regardless of this
  /// value, a multi-tenant scheduler (serve/serve.h) interleaves
  /// Router::step slices of many sessions on one pool without perturbing
  /// any session's results.
  int threads{1};
  /// Nets per rip-up/re-route batch (larger batches = more parallelism but
  /// prices within a batch do not see each other's usage). The batch
  /// structure applies independently of `threads`, which is what makes
  /// results thread-count invariant. Ignored by sharded rounds (below).
  int batch_size{48};
  /// Spatial sharding of the rip-up & re-route rounds. 0 (default) keeps the
  /// legacy batched round discipline above. With shards >= 1 each round
  /// (a) leaves the committed usage untouched until its barrier, so every
  /// net prices from the same frozen state, (b) partitions the nets into
  /// `shards` grid tiles by bounding box (route/sharding.h), (c) routes
  /// each shard's spans of kSpanNets nets on the worker pool, heaviest span
  /// first — every net priced from that usage minus its own committed
  /// usage — and (d) merges all route/usage updates at the barrier in net
  /// order. Results are
  /// bit-identical at ANY thread and shard count (shards only schedule
  /// work); they differ from the legacy batched discipline, whose batches
  /// see earlier batches' usage mid-round. Both disciplines price windows
  /// by gathering from CongestionCosts' per-resource price table; sharded
  /// rounds win on scheduling, with one merge barrier per round instead of
  /// one barrier per batch.
  int shards{0};
  /// Where sharded rounds execute shard work. Null (default) runs every
  /// shard in-process on the session's worker pool. Non-null dispatches
  /// every span the pool's lanes take through the transport
  /// (dist/transport.h) as serializable round messages — potentially to
  /// out-of-process workers — with results bit-identical to the
  /// in-process path at any worker count. Borrowed,
  /// not owned: the transport must outlive the session (or the set_options
  /// call that replaces it). Ignored when shards == 0.
  dist::ShardTransport* transport{nullptr};
};

/// Snapshot of a routing state (Router::result() / take_result()).
struct RouterResult {
  TimingSummary timing;
  CongestionReport congestion;
  WireStats wires;
  double walltime_s{0.0};
  std::size_t nets_routed{0};
  /// Final routed tree (grid edges) per net, for inspection/tests.
  std::vector<std::vector<EdgeId>> routes;
  /// Final per-sink delays, flattened in netlist order.
  std::vector<double> sink_delays;
  /// Final per-sink delay weights (the Lagrange multipliers).
  std::vector<double> sink_weights;
};

}  // namespace cdst
