#include "api/router.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <span>
#include <string>
#include <utility>

#include "api/events.h"
#include "api/scratch_pool.h"
#include "dist/transport.h"
#include "dist/wire.h"
#include "route/sharding.h"
#include "util/fault_injection.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/wire.h"

namespace cdst {
namespace {

// Checkpoint wire format: the shared little-endian discipline of util/wire.h
// with a custom body layout (round indexes and the round cursor, all four
// counts up front, then the payloads). Version 2 added the round cursor;
// version-1 bytes are refused.

constexpr std::uint32_t kCheckpointMagic = 0x43445354;  // "CDST"
constexpr std::uint32_t kCheckpointVersion = 2;

// The Lagrangean multiplier schedule: the slack magnitude (ps) that doubles
// a delay weight in one round, the weight bounds, and the scale of the
// RAT-criticality seed (w0 = kWeightInitScale * criticality^2). Each round
// steps the exponent by 1/sqrt(round) (Impl::slice).
constexpr double kWeightScale = 25.0;
constexpr double kWeightFloor = 5e-4;
constexpr double kWeightCeiling = 64.0;
constexpr double kWeightInitScale = 3.0;

/// Internal unwind of one failed ShardTransport dispatch inside a slice's
/// fan-out. Caught at the executor's retry loop, emitted as a
/// "dist.transport" FaultEvent, then either retried (kUnavailable) or
/// surfaced as the carried status.
struct TransportDispatchError {
  Status status;
};

/// One unit of a slice, the executor's grain: one net of a batch, or a
/// span of up to kSpanNets consecutive nets of one shard.
struct SliceUnit {
  int shard{-1};                        ///< -1: a net of a batch
  std::span<const std::uint32_t> nets;  ///< ascending net indices
  std::uint64_t work{0};                ///< estimated work of its nets
};

/// The one exception-to-Status ladder, for the exception in flight: the
/// executor's unwinds and the slice's API boundary both end here.
Status current_exception_status() {
  try {
    throw;
  } catch (const SolveCancelled&) {
    return Status::Cancelled(
        "router run cancelled mid-slice; committed state kept at the last "
        "batch or round boundary");
  } catch (const SolveDeadlineExceeded&) {
    return detail::deadline_exceeded_status(
        "router run deadline expired mid-slice; committed state kept at the "
        "last batch or round boundary");
  } catch (const InjectedFault& e) {
    return Status::Unavailable(e.what());
  } catch (const TransportDispatchError& e) {
    return Status::Annotate(e.status, "shard transport dispatch failed");
  } catch (const ContractViolation& e) {
    return Status::InvalidArgument(e.what());
  } catch (const std::exception& e) {
    return Status::Internal(e.what());
  }
}

/// The one check of RouterOptions, shared by the constructor (whose verdict
/// run() reports) and set_options.
Status validate_options(const RouterOptions& options) {
  if (options.batch_size < 1) {
    return Status::InvalidArgument("batch_size must be >= 1");
  }
  if (options.shards < 0) {
    return Status::InvalidArgument("shards must be >= 0");
  }
  return Status::Ok();
}

}  // namespace

std::vector<std::uint8_t> RouterCheckpoint::to_bytes() const {
  std::vector<std::uint8_t> out;
  out.reserve(56 + route_offsets.size() * 8 + route_edges.size() * 4 +
              sink_weights.size() * 8 + sink_delays.size() * 8);
  wire::put_header(out, kCheckpointMagic, kCheckpointVersion);
  wire::put_u64(out, options_seed);
  wire::put_u32(out, static_cast<std::uint32_t>(rounds_done));
  wire::put_u32(out, static_cast<std::uint32_t>(weights_round));
  wire::put_u64(out, round_cursor);
  wire::put_u64(out, route_offsets.size());
  wire::put_u64(out, route_edges.size());
  wire::put_u64(out, sink_weights.size());
  wire::put_u64(out, sink_delays.size());
  for (const std::uint64_t v : route_offsets) wire::put_u64(out, v);
  for (const std::uint32_t v : route_edges) wire::put_u32(out, v);
  for (const double v : sink_weights) wire::put_f64(out, v);
  for (const double v : sink_delays) wire::put_f64(out, v);
  return out;
}

StatusOr<RouterCheckpoint> RouterCheckpoint::from_bytes(
    std::span<const std::uint8_t> bytes) {
  wire::Reader r{bytes};
  switch (wire::expect_header(r, kCheckpointMagic, kCheckpointVersion)) {
    case wire::HeaderCheck::kBadMagic:
      return Status::InvalidArgument("checkpoint: bad magic");
    case wire::HeaderCheck::kBadVersion:
      return Status::InvalidArgument("checkpoint: unsupported version");
    case wire::HeaderCheck::kOk:
      break;
  }
  RouterCheckpoint cp;
  cp.options_seed = r.u64();
  cp.rounds_done = static_cast<std::int32_t>(r.u32());
  cp.weights_round = static_cast<std::int32_t>(r.u32());
  cp.round_cursor = r.u64();
  const std::uint64_t n_offsets = r.u64();
  const std::uint64_t n_edges = r.u64();
  const std::uint64_t n_weights = r.u64();
  const std::uint64_t n_delays = r.u64();
  // The counts came from untrusted bytes: check each against the remaining
  // payload before any resize (per-count via Reader::fits, so the sum cannot
  // overflow), so a corrupt header can neither drive a huge allocation nor
  // wrap the check. The exact-sum test pins the layout: all four payloads,
  // nothing else, must account for every remaining byte.
  if (!r.ok || !r.fits(n_offsets, 8) || !r.fits(n_edges, 4) ||
      !r.fits(n_weights, 8) || !r.fits(n_delays, 8) ||
      n_offsets * 8 + n_edges * 4 + n_weights * 8 + n_delays * 8 !=
          r.remaining()) {
    return Status::InvalidArgument("checkpoint: truncated");
  }
  cp.route_offsets.resize(n_offsets);
  for (std::uint64_t i = 0; i < n_offsets; ++i) {
    cp.route_offsets[i] = r.u64();
  }
  cp.route_edges.resize(n_edges);
  for (std::uint64_t i = 0; i < n_edges; ++i) cp.route_edges[i] = r.u32();
  cp.sink_weights.resize(n_weights);
  for (std::uint64_t i = 0; i < n_weights; ++i) cp.sink_weights[i] = r.f64();
  cp.sink_delays.resize(n_delays);
  for (std::uint64_t i = 0; i < n_delays; ++i) cp.sink_delays[i] = r.f64();
  if (!r.ok || r.pos != bytes.size()) {
    return Status::InvalidArgument("checkpoint: truncated or trailing bytes");
  }
  return cp;
}

// Kept at 704 bytes: 16-byte aligned, with a trailing pad. With glibc's
// default malloc settings this object's size class decides whether
// destroying a batch of sessions and grids hands their freed heap back to
// the OS, to be faulted in again page by page when the next ones are built:
// about 10,000 minor faults, or twice the set-up time, for Table V's c6-c8
// (ARCHITECTURE.md, "Heap trimming"). 704 bytes measures 0 faults; the
// unaligned 696 measured about 2,600, 672 bytes doubled the set-up time, and
// 704 reached through alignas(64) instead of the pad cost about a quarter.
struct alignas(16) Router::Impl {
  Impl(const RoutingGrid& grid_in, const Netlist& netlist_in,
       const RouterOptions& options_in, ThreadPool* shared_pool)
      : grid(grid_in),
        netlist(netlist_in),
        options(options_in),
        options_status(validate_options(options_in)),
        costs(grid_in, options_in.congestion),
        dense_budget(options_in.oracle.cd.dense_state_budget_bytes),
        pool(shared_pool) {
    if (pool == nullptr) {
      owned_pool =
          std::make_unique<ThreadPool>(std::max(1, options.threads));
      pool = owned_pool.get();
    }

    const std::size_t num_nets = netlist.nets.size();
    sink_offset.assign(num_nets + 1, 0);
    for (std::size_t i = 0; i < num_nets; ++i) {
      sink_offset[i + 1] = sink_offset[i] + netlist.nets[i].sinks.size();
    }
    const std::size_t num_sinks = sink_offset[num_nets];

    routes.assign(num_nets, {});
    sink_delays.assign(num_sinks, 0.0);
    sink_weights.assign(num_sinks, kWeightFloor);

    // Seed the Lagrange multipliers from RAT criticality: a sink whose
    // budget is close to its ideal (fastest-possible) delay starts with a
    // high delay weight, so the very first routing round already trades
    // congestion against timing sensibly instead of waiting for multiplier
    // ramp-up.
    rats.assign(num_sinks, 0.0);
    for (std::size_t i = 0; i < num_nets; ++i) {
      const Net& net = netlist.nets[i];
      for (std::size_t s = 0; s < net.sinks.size(); ++s) {
        const std::size_t flat = sink_offset[i] + s;
        rats[flat] = net.sinks[s].rat;
        const double ideal =
            grid.min_unit_delay() *
                static_cast<double>(
                    l1_distance(net.source, net.sinks[s].pos)) +
            2.0 * grid.min_via_delay();
        if (rats[flat] > 0.0 && ideal > 0.0) {
          const double criticality = ideal / rats[flat];  // <= 1 if feasible
          sink_weights[flat] =
              std::clamp(kWeightInitScale * criticality * criticality,
                         kWeightFloor, kWeightCeiling);
        }
      }
    }
  }

  /// A round event with congestion stats from the committed usage: the
  /// round barrier (`complete`), or the final summary of a cancelled (or
  /// deadline-expired) slice. The summary shows the round the unwind
  /// stopped at (not yet counted by rounds_done) plus how much of it the
  /// committed state kept, so a monitoring pipeline never loses track of
  /// where a session stands after an early return.
  void emit_round_summary(const detail::EventFan& fan, int target,
                          bool complete) const {
    if (!fan.active()) return;
    RouterRoundEvent event;
    event.round = rounds_done;
    event.target_round = target;
    event.nets_done = round_cursor;
    event.nets_total = netlist.nets.size();
    event.round_complete = complete;
    event.cancelled = !complete;
    const CongestionReport report = compute_ace(costs);
    event.ace4 = report.ace4;
    event.max_utilization = report.max_utilization;
    event.overfull_edges = report.overfull_edges;
    fan.emit_router_round(event);
  }

  /// The verdict run() and step() share before any slice runs.
  Status check_rounds(int rounds) const {
    if (!options_status.ok()) {
      return Status::Annotate(options_status, "Router::run");
    }
    if (rounds < 0) return Status::InvalidArgument("rounds must be >= 0");
    return Status::Ok();
  }

  /// One slice toward absolute round `target`: the next batch of a batched
  /// round, or one whole sharded round, then the round barrier when that
  /// ends the round. The cancel and deadline checks come first, then the
  /// round's multiplier step when it is due. run() loops slices; a slice
  /// never starts the next round, so Router::step commits one unit of work.
  Status slice(int target, const RunControl& control) {
    WallTimer timer;
    // Session walltime covers every slice, including early returns.
    struct TimeAcc {
      WallTimer& timer;
      double& acc;
      ~TimeAcc() { acc += timer.seconds(); }
    } time_acc{timer, walltime_s};

    const detail::EventFan fan(control);
    try {
      if (control.cancel != nullptr && control.cancel->cancelled()) {
        emit_round_summary(fan, target, /*complete=*/false);
        return Status::Cancelled("router run cancelled");
      }
      if (detail::deadline_expired(control)) {
        emit_round_summary(fan, target, /*complete=*/false);
        return detail::deadline_exceeded_status(
            "router run deadline expired at a round or batch boundary");
      }
      // Lagrangean step at the round boundary: slacks of the committed
      // routes drive the delay-weight multipliers of this round. Guarded
      // per absolute round so the later slices of a round, or a round
      // resumed at its cursor, never double-step the multipliers. The
      // decreasing subgradient step stabilizes them.
      if (rounds_done > 0 && weights_round != rounds_done) {
        const std::vector<double> slacks = compute_slacks(sink_delays, rats);
        const double step = 1.0 / std::sqrt(static_cast<double>(rounds_done));
        update_delay_weights(slacks, kWeightScale, kWeightFloor,
                             kWeightCeiling, sink_weights, step);
        weights_round = rounds_done;
      }
      const Status st = route_slice(rounds_done, target, control, fan);
      if (!st.ok()) {
        if (st.code() == StatusCode::kCancelled ||
            st.code() == StatusCode::kDeadlineExceeded) {
          emit_round_summary(fan, target, /*complete=*/false);
        }
        return Status::Annotate(st, "Router::run");
      }
      // Mid-round: the cursor holds the round's place for the next slice.
      if (round_cursor < netlist.nets.size()) return Status::Ok();
      // Round barrier: every update of the round is committed.
      emit_round_summary(fan, target, /*complete=*/true);
      round_cursor = 0;
      ++rounds_done;
      return Status::Ok();
    } catch (...) {
      return current_exception_status();
    }
  }

  /// Routes net i of `round` on a leased lane (route_round_net, the step
  /// the shard executor shares). `own_route` is the committed route priced
  /// out of the window: the sharded rip-up; a batched slice has ripped the
  /// batch up already and passes none. The weights view borrows from
  /// sink_weights, which only changes between rounds.
  OracleOutcome route_one_net(std::size_t i, int round,
                              std::span<const EdgeId> own_route,
                              const SolveControls& controls) {
    const std::span<const double> weights(
        sink_weights.data() + sink_offset[i],
        sink_offset[i + 1] - sink_offset[i]);
    const detail::LanePool<OracleLane>::Lease lease = lanes.lease();
    return route_round_net(*lease.get(), grid, costs, netlist.nets[i],
                           weights, own_route, options.method, options.oracle,
                           options.seed, round, &dense_budget, &controls);
  }

  /// The per-net commit both round barriers end in: the new route's usage
  /// goes in, the route and its sink delays become the net's committed
  /// state. The caller has taken the old route's usage out.
  void commit_net(std::size_t i, OracleOutcome& out) {
    costs.add_usage(out.grid_edges, +1.0);
    routes[i] = std::move(out.grid_edges);
    std::copy_n(out.eval.sink_delays.begin(), netlist.nets[i].sinks.size(),
                sink_delays.begin() +
                    static_cast<std::ptrdiff_t>(sink_offset[i]));
  }

  /// Estimated solve work of net i, the t·n of the oracle's
  /// O(t(n log n + m)) bound: sink count times the vertex count of the
  /// net's clipped routing window.
  std::uint64_t estimated_work(std::size_t i) const {
    const Net& net = netlist.nets[i];
    const Rect box =
        RoutingWindow::clip(grid, net_window_box(net, options.oracle));
    return static_cast<std::uint64_t>(net.sinks.size()) *
           static_cast<std::uint64_t>((box.width() + 1) * (box.height() + 1) *
                                      grid.nz());
  }

  /// The transport's round-invariant world: everything a shard worker needs
  /// to rebuild this session's grid and oracle bit-identically. Pointer
  /// knobs never cross the wire (dist/wire.h); executors install
  /// per-process equivalents, which cannot change results.
  dist::WorkerSetupMsg make_worker_setup() const {
    dist::WorkerSetupMsg setup;
    setup.nx = grid.nx();
    setup.ny = grid.ny();
    setup.layers = grid.layers();
    setup.via = grid.via();
    setup.netlist = netlist;
    setup.method = options.method;
    setup.oracle = options.oracle;
    setup.oracle.cd.future_cost = nullptr;
    setup.oracle.cd.shared_dense_budget = nullptr;
    setup.congestion = options.congestion;
    setup.options_seed = options.seed;
    return setup;
  }

  /// Packs one span of a shard's round inputs for a transport dispatch: per
  /// net the sink-weight slice and the committed route, which the executor
  /// prices out of the round's loaded usage exactly as route_one_net does.
  dist::ShardWorkMsg make_span_work(const SliceUnit& unit, int round) const {
    dist::ShardWorkMsg work;
    work.round = round;
    work.shard = unit.shard;
    work.nets.reserve(unit.nets.size());
    for (const std::uint32_t i : unit.nets) {
      const Net& net = netlist.nets[i];
      if (net.sinks.empty()) continue;  // skipped at the merge too
      dist::ShardWorkMsg::NetWork nw;
      nw.net = i;
      nw.sink_weights.assign(
          sink_weights.begin() + static_cast<std::ptrdiff_t>(sink_offset[i]),
          sink_weights.begin() +
              static_cast<std::ptrdiff_t>(sink_offset[i + 1]));
      nw.route_edges = routes[i];
      work.nets.push_back(std::move(nw));
    }
    return work;
  }

  /// Validates a transport's reply against the work it answers and moves
  /// the deltas into the slice's outcome slots (a sharded slice starts at
  /// net 0, so slot i is net i). Any mismatch means a misbehaving transport
  /// or executor: kInternal, never retried.
  Status apply_shard_result(const dist::ShardWorkMsg& work,
                            dist::ShardResultMsg& result,
                            std::span<OracleOutcome> outcomes) const {
    if (result.round != work.round || result.shard != work.shard) {
      return Status::Internal(
          "shard result does not answer the dispatched work");
    }
    if (result.nets.size() != work.nets.size()) {
      return Status::Internal("shard result net count mismatch");
    }
    const std::size_t num_edges = grid.graph().num_edges();
    for (std::size_t k = 0; k < result.nets.size(); ++k) {
      dist::ShardResultMsg::NetResult& nr = result.nets[k];
      const std::uint32_t i = work.nets[k].net;
      if (nr.net != i) {
        return Status::Internal("shard result net order mismatch");
      }
      if (nr.sink_delays.size() != netlist.nets[i].sinks.size()) {
        return Status::Internal("shard result sink-delay count mismatch");
      }
      for (const std::uint32_t e : nr.route_edges) {
        if (e >= num_edges) {
          return Status::Internal("shard result route edge out of range");
        }
      }
      outcomes[i].grid_edges = std::move(nr.route_edges);
      outcomes[i].eval.sink_delays = std::move(nr.sink_delays);
    }
    return Status::Ok();
  }

  /// The nets the next slice routes, [first, second): the batch_size nets
  /// at the round cursor, or every net of a sharded round. The one place
  /// that decides it, for route_slice and Router::next_slice_work alike.
  std::pair<std::size_t, std::size_t> slice_nets() const {
    const std::size_t num_nets = netlist.nets.size();
    if (options.shards > 0) return {0, num_nets};
    const auto batch =
        static_cast<std::size_t>(std::max(1, options.batch_size));
    return {round_cursor, std::min(num_nets, round_cursor + batch)};
  }

  /// One slice of `round`: freeze, execute, merge. A batched slice
  /// (RouterOptions::shards == 0) rips its batch up and routes it against
  /// the usage that leaves; a sharded slice is a whole round, whose nets
  /// all price from the round's committed usage minus their own route.
  /// Outcomes land in slots by net index and merge in net order, so results
  /// are bit-identical at any thread count, shard count or unit order. The
  /// batched rip-up is the only change to committed state before the merge,
  /// and a failed execute undoes it, so a cancelled or failed slice leaves
  /// the session at its last batch or round boundary. The round cursor
  /// advances past the slice's nets once they merge.
  Status route_slice(int round, int target_rounds, const RunControl& control,
                     const detail::EventFan& fan) {
    const bool sharded = options.shards > 0;
    const auto [lo, hi] = slice_nets();
    dist::ShardTransport* const transport =
        sharded ? options.transport : nullptr;
    std::vector<std::uint32_t> batch_nets;
    std::vector<SliceUnit> units;
    if (sharded) {
      // set_options and restore refuse to put a session stopped inside a
      // batched round on this discipline.
      CDST_CHECK(round_cursor == 0);
      // Shard map is a pure function of (grid, netlist, shards); rebuild
      // only when the shard count changes (set_options may do that).
      if (shard_map.nets.empty() ||
          shard_map.tiles.num_shards() != options.shards) {
        shard_map = assign_nets_to_shards(grid, netlist, options.shards);
      }
      // With a transport installed, send the round-invariant world once
      // (and again after set_options) and publish this round's committed
      // usage. Nothing has been dispatched yet, so failures here are
      // round-level and surface directly instead of entering the retries.
      if (transport != nullptr) {
        if (configured_transport != transport) {
          if (Status st = transport->configure(make_worker_setup());
              !st.ok()) {
            return Status::Annotate(st, "shard transport configure failed");
          }
          configured_transport = transport;
        }
        dist::PriceSnapshotMsg snapshot;
        snapshot.round = round;
        snapshot.usage = costs.usages();
        if (Status st = transport->begin_round(snapshot); !st.ok()) {
          return Status::Annotate(st, "shard transport begin_round failed");
        }
      }
      for (std::size_t sh = 0; sh < shard_map.nets.size(); ++sh) {
        const std::span<const std::uint32_t> mine(shard_map.nets[sh]);
        for (std::size_t k = 0; k < mine.size(); k += kSpanNets) {
          SliceUnit unit;
          unit.shard = static_cast<int>(sh);
          unit.nets = mine.subspan(
              k, std::min<std::size_t>(kSpanNets, mine.size() - k));
          for (const std::uint32_t i : unit.nets) {
            unit.work += estimated_work(i);
          }
          units.push_back(unit);
        }
      }
    } else {
      // Rip up the whole batch so its nets price edges without their own
      // (or each other's previous) usage.
      batch_nets.resize(hi - lo);
      std::iota(batch_nets.begin(), batch_nets.end(),
                static_cast<std::uint32_t>(lo));
      for (std::size_t k = 0; k < batch_nets.size(); ++k) {
        const std::uint32_t i = batch_nets[k];
        if (!routes[i].empty()) costs.add_usage(routes[i], -1.0);
        SliceUnit unit;
        unit.nets = std::span<const std::uint32_t>(batch_nets).subspan(k, 1);
        unit.work = estimated_work(i);
        units.push_back(unit);
      }
    }
    // Heaviest first: the pool hands out one unit at a time, so starting
    // the big units early keeps the slice from waiting on a lane that drew
    // one last. Ties keep list order.
    std::stable_sort(units.begin(), units.end(),
                     [](const SliceUnit& a, const SliceUnit& b) {
                       return a.work > b.work;
                     });

    std::vector<OracleOutcome> outcomes(hi - lo);
    if (Status st = execute(units, outcomes, lo, round, target_rounds,
                            transport, control, fan);
        !st.ok()) {
      // Restore the batch's pre-rip-up routes so the session stays a
      // coherent snapshot, whatever unwound the slice.
      for (const std::uint32_t i : batch_nets) {
        if (!routes[i].empty()) costs.add_usage(routes[i], +1.0);
      }
      return st;
    }

    // The merge: the serial net-order commit makes the accumulated usage
    // bit-identical regardless of how many lanes produced the outcomes.
    for (std::size_t i = lo; i < hi; ++i) {
      if (netlist.nets[i].sinks.empty()) continue;
      if (sharded && !routes[i].empty()) costs.add_usage(routes[i], -1.0);
      commit_net(i, outcomes[i - lo]);
    }
    round_cursor = hi;
    if (!sharded && fan.active()) {
      // Batch boundary inside the round (not the barrier: later batches
      // of this round may still be outstanding, so no congestion stats).
      RouterRoundEvent event;
      event.round = round;
      event.target_round = target_rounds;
      event.nets_done = hi;
      event.nets_total = netlist.nets.size();
      fan.emit_router_round(event);
    }
    return Status::Ok();
  }

  /// The one executor: runs a slice's units on the pool in their given
  /// (heaviest-first) order, writing net i's outcome to outcomes[i - lo].
  /// A unit hits the "router.unit" fault site, checks cancel and deadline,
  /// then routes its nets in process (a shard span prices out each net's
  /// own route, a batch net nothing) or dispatches them through the
  /// transport as one ShardWorkMsg. Every outcome is a pure function of the
  /// frozen slice inputs, so the order and the lane of a unit only schedule
  /// work. The lane that completes a shard's last unit emits its one
  /// RouterShardEvent.
  ///
  /// Up to kMaxAttempts attempts: a retryable fault (injected, or a
  /// kUnavailable dispatch) fails only the units it interrupted, and the
  /// next attempt re-runs just the units not yet done, rewriting the same
  /// slots. Cancellation, deadlines and everything else are not retried;
  /// current_exception_status maps them.
  Status execute(const std::vector<SliceUnit>& units,
                 std::span<OracleOutcome> outcomes, std::size_t lo,
                 int round, int target_rounds,
                 dist::ShardTransport* transport, const RunControl& control,
                 const detail::EventFan& fan) {
    const SolveControls controls = detail::make_solve_controls(control);
    Mutex progress_mu;
    // Guarded by progress_mu (locals, so the guard is convention, not
    // analysis-checked), and only kept for a sink: nets of completed
    // shards, per shard the units not yet done and the seconds spent
    // inside ShardTransport::dispatch over every attempt.
    std::size_t nets_done = 0;
    std::vector<std::size_t> units_left(shard_map.nets.size(), 0);
    std::vector<double> dispatch_seconds(units_left.size(), 0.0);
    for (const SliceUnit& unit : units) {
      if (unit.shard >= 0) ++units_left[static_cast<std::size_t>(unit.shard)];
    }

    std::vector<std::size_t> pending(units.size());
    std::iota(pending.begin(), pending.end(), std::size_t{0});
    std::vector<std::uint8_t> done(units.size(), 0);
    const auto run_unit = [&](std::size_t k) {
      const SliceUnit& unit = units[pending[k]];
      CDST_FAULT_POINT("router.unit");
      if (controls.cancel != nullptr &&
          controls.cancel->load(std::memory_order_relaxed)) {
        // cdst-lint: allow(api-throw) internal unwind: caught at the
        // retry loop below and mapped to kCancelled.
        throw SolveCancelled();
      }
      throw_if_deadline_expired(&controls);
      if (transport == nullptr) {
        for (const std::uint32_t i : unit.nets) {
          if (netlist.nets[i].sinks.empty()) continue;
          const std::span<const EdgeId> own =
              unit.shard >= 0 ? std::span<const EdgeId>(routes[i])
                              : std::span<const EdgeId>();
          outcomes[i - lo] = route_one_net(i, round, own, controls);
        }
      } else {
        const dist::ShardWorkMsg work = make_span_work(unit, round);
        if (!work.nets.empty()) {  // else only sink-less nets
          WallTimer dispatch_timer;
          StatusOr<dist::ShardResultMsg> result = transport->dispatch(work);
          if (fan.active()) {
            MutexLock lock(progress_mu);
            dispatch_seconds[static_cast<std::size_t>(unit.shard)] +=
                dispatch_timer.seconds();
          }
          Status st = result.ok() ? apply_shard_result(work, *result, outcomes)
                                  : result.status();
          if (!st.ok()) {
            // cdst-lint: allow(api-throw) internal unwind: caught at the
            // retry loop below, emitted as a "dist.transport" FaultEvent.
            throw TransportDispatchError{std::move(st)};
          }
        }
      }
      done[pending[k]] = 1;
      if (unit.shard < 0 || !fan.active()) return;
      // Serialized shard boundary: sinks need not be thread-safe and
      // nets_done is monotonic across events.
      const auto sh = static_cast<std::size_t>(unit.shard);
      MutexLock lock(progress_mu);
      if (--units_left[sh] != 0) return;
      nets_done += shard_map.nets[sh].size();
      const ShardTile tile = shard_tile(shard_map.tiles, unit.shard);
      RouterShardEvent event;
      event.round = round;
      event.target_round = target_rounds;
      event.shard = unit.shard;
      event.shards = shard_map.tiles.num_shards();
      event.tile_x = tile.tx;
      event.tile_y = tile.ty;
      event.shard_nets = shard_map.nets[sh].size();
      event.nets_done = nets_done;
      event.nets_total = netlist.nets.size();
      event.dispatch_seconds = dispatch_seconds[sh];
      fan.emit_router_shard(event);
    };

    constexpr int kMaxAttempts = 3;
    for (int attempt = 1;; ++attempt) {
      // Emits the FaultEvent of a failed attempt; true when another follows.
      const auto retry = [&](const char* stage, StatusCode code,
                             bool retryable) {
        const bool retrying = retryable && attempt < kMaxAttempts;
        if (fan.active()) {
          FaultEvent event;
          event.stage = stage;
          event.round = round;
          event.attempt = attempt;
          event.retrying = retrying;
          event.status = code;
          fan.emit_fault(event);
        }
        return retrying;
      };
      try {
        pool->parallel_for(0, pending.size(), run_unit);
        return Status::Ok();
      } catch (const InjectedFault& e) {
        if (!retry("router_unit", StatusCode::kUnavailable, true)) {
          return Status::Unavailable(
              std::string("slice gave up after 3 attempts: ") + e.what());
        }
      } catch (const TransportDispatchError& e) {
        // kUnavailable is the transport's transient class (dead worker,
        // broken pipe, injected fault at "dist.transport"): the retry
        // dispatches again, and dead workers respawn on their next
        // dispatch. Anything else (malformed replies, typed worker errors)
        // fails the slice at once.
        const bool retryable = e.status.code() == StatusCode::kUnavailable;
        if (!retry("dist.transport", e.status.code(), retryable)) {
          return retryable ? Status::Annotate(
                                 e.status, "slice gave up after 3 attempts")
                           : current_exception_status();
        }
      } catch (...) {
        return current_exception_status();
      }
      std::erase_if(pending, [&](std::size_t u) { return done[u] != 0; });
    }
  }

  /// Metrics are recomputed from committed state; `take` additionally moves
  /// the bulky per-net vectors out (ending the session's routing state)
  /// instead of copying them.
  RouterResult result(bool take) {
    RouterResult r;
    r.timing = summarize_slacks(compute_slacks(sink_delays, rats));
    r.congestion = compute_ace(costs);
    r.wires = compute_wire_stats(grid, routes);
    r.walltime_s = walltime_s;
    r.nets_routed = netlist.nets.size();
    if (take) {
      r.routes = std::move(routes);
      r.sink_delays = std::move(sink_delays);
      r.sink_weights = std::move(sink_weights);
    } else {
      r.routes = routes;
      r.sink_delays = sink_delays;
      r.sink_weights = sink_weights;
    }
    return r;
  }

  const RoutingGrid& grid;
  const Netlist& netlist;
  RouterOptions options;
  /// The constructor's verdict on `options`: a session built with invalid
  /// options refuses to run() until set_options installs valid ones.
  Status options_status;
  CongestionCosts costs;
  /// One atomic dense-state pool shared by every concurrent oracle lane of
  /// this session (sized from options.oracle.cd.dense_state_budget_bytes).
  DenseStateBudget dense_budget;
  ThreadPool* pool{nullptr};
  std::unique_ptr<ThreadPool> owned_pool;
  /// Recycled per-task oracle lanes; their memory is bounded by the
  /// concurrency high-water mark times the largest window routed.
  detail::LanePool<OracleLane> lanes;

  /// Sharded-round net partition, rebuilt when the shard count changes.
  ShardMap shard_map;
  /// The transport last configured with this session's world; set_options
  /// resets it so the next sharded round re-sends the setup.
  dist::ShardTransport* configured_transport{nullptr};

  std::vector<std::size_t> sink_offset;
  std::vector<double> rats;
  std::vector<double> sink_weights;
  std::vector<double> sink_delays;
  std::vector<std::vector<EdgeId>> routes;
  int rounds_done{0};
  int weights_round{0};  ///< last absolute round the multipliers stepped for
  /// The round cursor: nets of round `rounds_done` already merged into
  /// committed state, so also the first net the round routes next. Batched
  /// rounds advance it per batch and keep it across a cancel, a failed
  /// batch or the end of a slice; sharded rounds set it at the barrier. It
  /// returns to 0 only when a round barrier passes. Feeds the round and
  /// cancellation summary events, and checkpoints record it.
  std::size_t round_cursor{0};
  double walltime_s{0.0};
  /// Holds the session at 704 bytes (see above); never read.
  std::byte heap_class_pad[104]{};
};

Router::Router(const RoutingGrid& grid, const Netlist& netlist,
               const RouterOptions& options, ThreadPool* pool)
    : impl_(std::make_unique<Impl>(grid, netlist, options, pool)) {
#if defined(__GLIBC__) && defined(__GLIBCXX__) && defined(__x86_64__)
  static_assert(sizeof(Impl) == 704,
                "Router::Impl left the 704-byte malloc size class; re-measure "
                "set-up page faults (ARCHITECTURE.md, \"Heap trimming\")");
#endif
}

Router::~Router() = default;
Router::Router(Router&&) noexcept = default;
Router& Router::operator=(Router&&) noexcept = default;

Status Router::run(int rounds, const RunControl& control) {
  Impl& impl = *impl_;
  if (Status st = impl.check_rounds(rounds); !st.ok()) return st;
  const int target = impl.rounds_done + rounds;
  while (impl.rounds_done < target) {
    if (Status st = impl.slice(target, control); !st.ok()) return st;
  }
  return Status::Ok();
}

Status Router::step(int rounds, const RunControl& control) {
  Impl& impl = *impl_;
  if (Status st = impl.check_rounds(rounds); !st.ok()) return st;
  if (rounds == 0) return Status::Ok();
  return impl.slice(impl.rounds_done + rounds, control);
}

std::uint64_t Router::next_slice_work() const {
  const Impl& impl = *impl_;
  const auto [lo, hi] = impl.slice_nets();
  std::uint64_t work = 0;
  for (std::size_t i = lo; i < hi; ++i) work += impl.estimated_work(i);
  return work;
}

RouterResult Router::result() const { return impl_->result(/*take=*/false); }

RouterResult Router::take_result() && { return impl_->result(/*take=*/true); }

int Router::rounds_completed() const { return impl_->rounds_done; }

const RouterOptions& Router::options() const { return impl_->options; }

Status Router::set_options(const RouterOptions& options) {
  if (Status st = validate_options(options); !st.ok()) return st;
  Impl& impl = *impl_;
  if (impl.round_cursor != 0 &&
      (options.shards > 0) != (impl.options.shards > 0)) {
    return Status::FailedPrecondition(
        "set_options: the session stopped inside a round; finish the round "
        "before switching between batched and sharded rounds");
  }
  const int old_threads = impl.options.threads;
  impl.options = options;
  impl.options_status = Status::Ok();
  // No solves are in flight between runs, so re-sizing the shared
  // dense-state pool is safe; the shard map lazily rebuilds when the shard
  // count changed (route_slice compares the map's shard count).
  impl.dense_budget.reset(options.oracle.cd.dense_state_budget_bytes);
  // Re-price the committed usage under the (possibly changed) congestion
  // parameters; usage itself — and hence the warm state — is preserved.
  impl.costs = CongestionCosts(impl.grid, options.congestion);
  for (const auto& route : impl.routes) {
    if (!route.empty()) impl.costs.add_usage(route, +1.0);
  }
  // Any transport must be re-sent the (possibly changed) world before its
  // next dispatch — even the same transport object.
  impl.configured_transport = nullptr;
  if (impl.owned_pool != nullptr && options.threads != old_threads) {
    impl.owned_pool =
        std::make_unique<ThreadPool>(std::max(1, options.threads));
    impl.pool = impl.owned_pool.get();
  }
  return Status::Ok();
}

const std::vector<double>& Router::sink_weights() const {
  return impl_->sink_weights;
}

const std::vector<double>& Router::sink_delays() const {
  return impl_->sink_delays;
}

RouterCheckpoint Router::checkpoint() const {
  const Impl& impl = *impl_;
  RouterCheckpoint cp;
  cp.options_seed = impl.options.seed;
  cp.rounds_done = impl.rounds_done;
  cp.weights_round = impl.weights_round;
  cp.round_cursor = impl.round_cursor;
  cp.route_offsets.reserve(impl.routes.size() + 1);
  cp.route_offsets.push_back(0);
  std::size_t total_edges = 0;
  for (const std::vector<EdgeId>& route : impl.routes) {
    total_edges += route.size();
    cp.route_offsets.push_back(total_edges);
  }
  cp.route_edges.reserve(total_edges);
  for (const std::vector<EdgeId>& route : impl.routes) {
    cp.route_edges.insert(cp.route_edges.end(), route.begin(), route.end());
  }
  cp.sink_weights = impl.sink_weights;
  cp.sink_delays = impl.sink_delays;
  return cp;
}

Status Router::restore(const RouterCheckpoint& cp) {
  Impl& impl = *impl_;
  // Validate everything against this session's grid and netlist before
  // touching any state, so a failed restore leaves the session unchanged.
  if (cp.options_seed != impl.options.seed) {
    return Status::FailedPrecondition(
        "checkpoint was taken under a different options.seed; replaying "
        "rounds under this session's seed could not reproduce the "
        "uninterrupted run");
  }
  if (cp.rounds_done < 0 || cp.weights_round < 0 ||
      cp.weights_round > cp.rounds_done) {
    return Status::InvalidArgument("checkpoint: bad round indexes");
  }
  const std::size_t num_nets = impl.netlist.nets.size();
  // A cursor inside a round names a net of this netlist, and that round's
  // multiplier step has already been taken.
  if (cp.round_cursor != 0 && (cp.round_cursor >= num_nets ||
                               cp.weights_round != cp.rounds_done)) {
    return Status::InvalidArgument("checkpoint: bad round cursor");
  }
  if (cp.round_cursor != 0 && impl.options.shards > 0) {
    return Status::FailedPrecondition(
        "checkpoint stopped inside a batched round; a session running "
        "sharded rounds cannot finish it");
  }
  const std::size_t num_sinks = impl.sink_offset[num_nets];
  if (cp.route_offsets.size() != num_nets + 1 ||
      cp.route_offsets.front() != 0 ||
      cp.route_offsets.back() != cp.route_edges.size()) {
    return Status::InvalidArgument(
        "checkpoint: route offsets do not match this netlist");
  }
  for (std::size_t i = 0; i < num_nets; ++i) {
    if (cp.route_offsets[i] > cp.route_offsets[i + 1]) {
      return Status::InvalidArgument(
          "checkpoint: route offsets not monotonic");
    }
  }
  if (cp.sink_weights.size() != num_sinks ||
      cp.sink_delays.size() != num_sinks) {
    return Status::InvalidArgument(
        "checkpoint: sink arrays do not match this netlist");
  }
  // Multipliers and delays feed the oracle's delay weights and the next
  // multiplier step, which assume finite values >= 0.
  const auto bad_value = [](double v) { return !std::isfinite(v) || v < 0.0; };
  if (std::ranges::any_of(cp.sink_weights, bad_value) ||
      std::ranges::any_of(cp.sink_delays, bad_value)) {
    return Status::InvalidArgument(
        "checkpoint: sink weight or delay is negative or not finite");
  }
  const std::size_t num_edges = impl.grid.graph().num_edges();
  for (const std::uint32_t e : cp.route_edges) {
    if (e >= num_edges) {
      return Status::InvalidArgument(
          "checkpoint: route edge out of range for this grid");
    }
  }

  for (std::size_t i = 0; i < num_nets; ++i) {
    impl.routes[i].assign(
        cp.route_edges.begin() +
            static_cast<std::ptrdiff_t>(cp.route_offsets[i]),
        cp.route_edges.begin() +
            static_cast<std::ptrdiff_t>(cp.route_offsets[i + 1]));
  }
  impl.sink_weights = cp.sink_weights;
  impl.sink_delays = cp.sink_delays;
  impl.rounds_done = cp.rounds_done;
  impl.weights_round = cp.weights_round;
  impl.round_cursor = static_cast<std::size_t>(cp.round_cursor);
  // Congestion prices are a pure function of the committed usage: rebuild
  // them from the restored routes (the same discipline set_options uses), so
  // the restored session prices rounds exactly like the uninterrupted one.
  impl.costs = CongestionCosts(impl.grid, impl.options.congestion);
  for (const std::vector<EdgeId>& route : impl.routes) {
    if (!route.empty()) impl.costs.add_usage(route, +1.0);
  }
  return Status::Ok();
}

}  // namespace cdst
