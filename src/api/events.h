/// \file api/events.h
/// Typed engine events — the observer surface of the streaming pipeline API.
///
/// Pipelines that multiplex solver lanes, batch jobs and router rounds need
/// to know *which* boundary fired and what state it carries. An EventSink
/// receives one typed call per boundary:
///
///   on_solve_merge   core/cost_distance.cpp, after every component merge
///                    of a single solve() (solving thread)
///   on_job           CdSolver::solve_batch / SolveStream, after every
///                    per-job completion (serialized; `completed` is
///                    strictly monotonic)
///   on_router_shard  api/router.cpp, after each spatial shard of a sharded
///                    round finishes routing (serialized; tile coordinates
///                    from route/sharding.cpp)
///   on_router_round  api/router.cpp, at batch boundaries and at the round
///                    barrier (round_complete, with congestion stats), and
///                    as the final summary of a cancelled run() (cancelled,
///                    so observers see the round the unwind stopped at)
///   on_fault         api/router.cpp, when a retryable fault unwound part
///                    of an engine call and the engine is retrying (or
///                    giving up) — the observable half of the
///                    fault-tolerance layer (see ARCHITECTURE.md "Failure
///                    model & recovery")
///
/// Ordering guarantees: events of one engine call are delivered in a single
/// serialized stream (the sink need not be thread-safe); job `completed`
/// counts and router `nets_done` counts never decrease within a call; a
/// round_complete event for round r is delivered before any event of round
/// r+1. Handlers must not call back into the emitting session object (the
/// engine may hold internal locks while delivering) — request_cancel() on a
/// CancelToken is the supported way to influence a run from a handler.

#pragma once

#include <cstddef>

#include "api/run_control.h"
#include "api/status.h"

namespace cdst {

/// One component merge of a single cost-distance solve. merges_total is the
/// instance's sink count; merges_done == merges_total is the finished tree.
struct SolveMergeEvent {
  std::size_t merges_done{0};
  std::size_t merges_total{0};
  std::size_t labels_settled{0};      ///< permanent labels so far
  std::size_t completions_popped{0};  ///< completion labels popped so far
};

/// One job finished inside CdSolver::solve_batch or a SolveStream.
struct JobEvent {
  std::size_t index{0};      ///< submission index of the finished job
  std::size_t completed{0};  ///< jobs finished so far (strictly monotonic)
  /// Batch size (solve_batch) or jobs submitted so far (SolveStream).
  std::size_t submitted{0};
  StatusCode status{StatusCode::kOk};  ///< how this job ended
};

/// One spatial shard of a sharded router round finished routing (the merge
/// into committed state happens later, at the round barrier). One event per
/// shard per round, from the lane that completed the shard's last span; a
/// shard with no nets emits nothing.
struct RouterShardEvent {
  int round{0};         ///< absolute session round index
  int target_round{0};  ///< absolute round this run()/step() is heading for
  int shard{0};         ///< shard index within the round
  int shards{0};       ///< shard count of the round
  int tile_x{0};       ///< lattice coordinates of the shard's grid tile
  int tile_y{0};
  std::size_t shard_nets{0};  ///< nets assigned to this shard
  std::size_t nets_done{0};   ///< nets routed so far this round (monotonic)
  std::size_t nets_total{0};
  /// Wall seconds spent inside ShardTransport::dispatch for this shard,
  /// summed over its span dispatches (one per span, possibly concurrent, so
  /// the sum can exceed the shard's wall time) in every attempt of the
  /// round; 0.0 when the round ran in process without a transport.
  double dispatch_seconds{0.0};
};

/// A router round boundary: batch progress inside a round, the round
/// barrier itself (round_complete, congestion stats filled), or the final
/// summary of a cancelled run() (cancelled, congestion stats filled).
struct RouterRoundEvent {
  int round{0};         ///< absolute session round index
  int target_round{0};  ///< absolute round this run()/step() is heading for
  std::size_t nets_done{0};
  std::size_t nets_total{0};
  /// True at the round barrier, after every update merged into committed
  /// state; congestion stats below describe that committed state.
  bool round_complete{false};
  /// True on the final summary of a cancelled run(): `round` is the round
  /// the unwind stopped at (not yet counted by rounds_completed()), and the
  /// congestion stats describe the committed state the session kept.
  bool cancelled{false};
  /// ACE4 congestion (paper Tables IV/V) of the committed routes; only
  /// meaningful when round_complete or cancelled, negative otherwise.
  double ace4{-1.0};
  double max_utilization{-1.0};  ///< worst edge utilization in %
  std::size_t overfull_edges{0};
};

/// A fault-tolerance boundary: a retryable fault (injected via
/// util/fault_injection.h, or a real transient failure) unwound part of an
/// engine call. `retrying` tells observers whether another attempt follows
/// (the committed state is unchanged either way — retries re-execute
/// against the same inputs, so results stay bit-identical to a fault-free
/// run) or the engine is giving up with the carried status.
struct FaultEvent {
  /// "router_unit" (a fault unwound a unit of a round slice: a net of a
  /// batch or a span of a shard) or "dist.transport" (a ShardTransport
  /// dispatch failed); more stages may follow.
  const char* stage{""};
  int round{-1};          ///< absolute session round, -1 outside rounds
  int attempt{0};         ///< 1-based attempt that just failed
  bool retrying{false};   ///< true: another attempt follows
  StatusCode status{StatusCode::kOk};  ///< how the failed attempt ended
};

/// Typed event observer. Default implementations ignore everything, so a
/// sink overrides only the boundaries it cares about. Install one via
/// RunControl::events; the engine serializes all calls within one engine
/// call, so implementations need not be thread-safe (they are, however,
/// invoked on engine worker threads — keep them fast and do not call back
/// into the emitting session). Handlers should not throw: observation
/// never alters engine results or statuses, so any exception a handler
/// does raise is caught and discarded at the emission site.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void on_solve_merge(const SolveMergeEvent& event) {
    (void)event;
  }
  virtual void on_job(const JobEvent& event) { (void)event; }
  virtual void on_router_shard(const RouterShardEvent& event) {
    (void)event;
  }
  virtual void on_router_round(const RouterRoundEvent& event) {
    (void)event;
  }
  virtual void on_fault(const FaultEvent& event) { (void)event; }
};

namespace detail {

/// Resolves a RunControl's typed sink once per engine call. An inactive fan
/// makes every emit a no-op, so call sites can skip event construction via
/// active().
class EventFan {
 public:
  explicit EventFan(const RunControl& control) : sink_(control.events) {}
  EventFan(const EventFan&) = delete;
  EventFan& operator=(const EventFan&) = delete;

  bool active() const { return sink_ != nullptr; }

  void emit_solve_merge(const SolveMergeEvent& event) const {
    emit(&EventSink::on_solve_merge, event);
  }
  void emit_job(const JobEvent& event) const {
    emit(&EventSink::on_job, event);
  }
  void emit_router_shard(const RouterShardEvent& event) const {
    emit(&EventSink::on_router_shard, event);
  }
  void emit_router_round(const RouterRoundEvent& event) const {
    emit(&EventSink::on_router_round, event);
  }
  void emit_fault(const FaultEvent& event) const {
    emit(&EventSink::on_fault, event);
  }

 private:
  // Emission swallows handler exceptions (the EventSink contract): events
  // fire from solver hot loops, fire-and-forget stream lanes and batch
  // workers, where an escaping exception would either kill the process or
  // leak through the api layer's no-throw Status boundary. Observation must
  // never alter engine behavior.
  template <typename Event>
  void emit(void (EventSink::*handler)(const Event&),
            const Event& event) const {
    if (sink_ == nullptr) return;
    try {
      (sink_->*handler)(event);
    } catch (...) {
    }
  }

  EventSink* sink_;
};

}  // namespace detail
}  // namespace cdst
