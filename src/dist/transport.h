/// \file dist/transport.h
/// Pluggable execution of sharded router rounds: where a shard's work runs.
///
/// The Router's round executor (api/router.cpp) stays the owner of the
/// protocol — it publishes the round's usage, partitions nets, orders
/// spans, retries failures and merges at the barrier; a ShardTransport only
/// answers "execute this span of a shard's nets and return its deltas".
/// The executor issues one dispatch per span of kSpanNets
/// (route/sharding.h) consecutive nets of one shard from the pool's lanes,
/// heaviest span first, several spans of a shard possibly in flight at
/// once. Because every implementation is fed by the same serializable
/// messages (dist/wire.h) and the executor (dist/shard_executor.h) is a
/// pure function of them, routing results are bit-identical across
/// transports, worker counts and span orders.
///
/// Failure contract: dispatch returns kUnavailable for transient faults
/// worth retrying (a dead worker, a broken pipe, a desynchronized reply,
/// an injected fault at site `dist.transport`); the executor then
/// re-dispatches the spans not yet done through the transport again, with
/// the same parallel fan-out as the first attempt (dead workers respawn on
/// their next dispatch).
/// Non-kUnavailable codes mean retrying cannot help (malformed messages,
/// exhausted budgets) and fail the round immediately.

#pragma once

#include <memory>
#include <vector>

#include "api/status.h"
#include "dist/wire.h"

namespace cdst::dist {

class ShardTransport {
 public:
  virtual ~ShardTransport() = default;

  /// Transport identity for logs/bench labels.
  virtual const char* name() const = 0;

  /// Replaces the round-invariant world (grid, netlist, knobs). Called
  /// before the first dispatch and again whenever session options change.
  /// Never concurrent with dispatch.
  virtual Status configure(const WorkerSetupMsg& setup) = 0;

  /// Publishes one round's committed usage, one value per resource (the
  /// executor loads it with load_snapshot, dist/shard_executor.h); every
  /// dispatch until the next begin_round prices from it. Never concurrent
  /// with dispatch.
  virtual Status begin_round(const PriceSnapshotMsg& snapshot) = 0;

  /// Executes one span of a shard's nets. Thread-safe: the round loop's
  /// lanes dispatch spans concurrently from its worker pool. The reply
  /// answers exactly the dispatched nets, in work order.
  virtual StatusOr<ShardResultMsg> dispatch(const ShardWorkMsg& work) = 0;
};

/// The degenerate transport: serialize -> parse -> execute -> serialize ->
/// parse, all in-process. Every boundary runs the real wire round-trip, so
/// this is the serialization-correctness oracle — a Router round through it
/// must be bit-identical to the direct in-process round, and any field a
/// message fails to carry shows up as a routing diff, not a subtle remote
/// divergence.
class InProcessTransport final : public ShardTransport {
 public:
  InProcessTransport();
  ~InProcessTransport() override;

  const char* name() const override { return "in-process"; }
  Status configure(const WorkerSetupMsg& setup) override;
  Status begin_round(const PriceSnapshotMsg& snapshot) override;
  StatusOr<ShardResultMsg> dispatch(const ShardWorkMsg& work) override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace cdst::dist
