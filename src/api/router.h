/// \file api/router.h
/// Session object around the timing-constrained global router.
///
/// Constructed once per grid + netlist, the session retains everything the
/// Lagrangean iteration accumulates — congestion prices, routed trees,
/// per-sink delay weights (the Lagrange multipliers) — so run() is
/// resumable: run(2) followed by run(2) is bit-identical to run(4), and
/// after an option change (oracle knobs, Steiner method, weight schedule)
/// the next run() re-routes warm from the converged prices instead of from
/// scratch.
///
/// Rounds advance in slices: the next batch of a batched round (with the
/// round barrier when that batch ends the round), or one whole sharded
/// round. run(N) loops slices until N more barriers have passed; step()
/// runs one slice and returns, which is how a scheduler interleaves
/// sessions on one pool (serve/serve.h). Every slice runs on one executor:
/// its units (one net of a batch, or a span of a shard) go to the pool
/// heaviest first, and a transient fault is retried, up to three attempts,
/// by re-running only the units not yet done.
///
/// Cancellation is honored at batch granularity: a cancelled run() returns
/// kCancelled with every committed batch intact (the in-flight batch is
/// rolled back to its pre-rip-up routes), so result() is always a coherent
/// snapshot, and the run emits a final cancelled round-summary event so
/// observers see the round the unwind stopped at. The session keeps its
/// place in the round (the round cursor): the next run() continues at the
/// first uncommitted batch and ends bit-identical to an uninterrupted run.
/// No exception crosses this boundary. Observation goes through
/// RunControl::events (api/events.h): batch/shard boundaries while a round
/// runs, and a round_complete event with congestion stats at every round
/// barrier.
///
/// With RouterOptions::shards >= 1 rounds run spatially sharded instead of
/// batched: the committed usage stays frozen for the round, the spans of
/// net shards (grid tiles, see route/sharding.h) route against it, and all
/// updates merge at the round barrier in net order —
/// bit-identical results at any thread and shard count, and cancellation
/// unwinds to the previous round boundary with no rollback at all.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "api/events.h"
#include "api/run_control.h"
#include "api/status.h"
#include "route/router.h"

namespace cdst {

class ThreadPool;

/// Serializable snapshot of a Router session's round state, taken between
/// run() calls (Router::checkpoint) and replayed into a fresh session over
/// the same grid/netlist (Router::restore). Everything the Lagrangean
/// iteration accumulates is either stored here or a pure function of it:
/// congestion prices/usage are rebuilt from the routes, per-net seeds
/// derive from (options.seed, net id, absolute round), so a restored
/// session continues bit-identically to one that was never interrupted.
///
/// The struct is plain data; to_bytes()/from_bytes() give it a versioned,
/// endianness-fixed wire form (the same layout a future off-process round
/// protocol would ship between workers).
struct RouterCheckpoint {
  /// RouterOptions::seed the state was produced under. restore() refuses a
  /// mismatch: replaying rounds under a different seed could not reproduce
  /// the uninterrupted run.
  std::uint64_t options_seed{0};
  std::int32_t rounds_done{0};
  std::int32_t weights_round{0};
  /// The round cursor: nets of round `rounds_done` already committed. 0 at
  /// a round barrier; inside a batched round, the first net the resumed
  /// round routes.
  std::uint64_t round_cursor{0};
  /// Per-net routes, flattened: net i owns route_edges
  /// [route_offsets[i], route_offsets[i+1]).
  std::vector<std::uint64_t> route_offsets;
  std::vector<std::uint32_t> route_edges;
  std::vector<double> sink_weights;  ///< Lagrange multipliers, flat
  std::vector<double> sink_delays;   ///< committed route delays, flat

  /// Versioned little-endian byte serialization (magic + version header).
  std::vector<std::uint8_t> to_bytes() const;
  /// Parses bytes produced by to_bytes(); kInvalidArgument on truncated,
  /// corrupt or version-mismatched input.
  static StatusOr<RouterCheckpoint> from_bytes(
      std::span<const std::uint8_t> bytes);
};

class Router {
 public:
  /// Borrows grid and netlist for the session's lifetime. `pool` optionally
  /// shares a caller-owned ThreadPool across engine objects (the ROADMAP's
  /// shared fan-out pool); when null the session owns a pool of
  /// options.threads workers. Results never depend on the thread count.
  /// Options are checked as set_options() checks them; a session built with
  /// invalid options routes nothing, and run() returns kInvalidArgument
  /// until set_options() installs valid ones.
  Router(const RoutingGrid& grid, const Netlist& netlist,
         const RouterOptions& options, ThreadPool* pool = nullptr);
  ~Router();
  Router(Router&&) noexcept;
  Router& operator=(Router&&) noexcept;

  /// Executes `rounds` additional Lagrangean rip-up & re-route rounds on top
  /// of the current state. When the session stopped inside a round, that
  /// round is the first of them and continues at its cursor. Deterministic:
  /// seeds and multiplier steps are indexed by the absolute round number,
  /// so any split of N rounds across run() calls, at round or batch
  /// boundaries, produces bit-identical routes. rounds == 0 is a no-op.
  Status run(int rounds, const RunControl& control = {});

  /// The first slice of run(rounds), and nothing after it: the next batch
  /// of a batched round (plus the round barrier when that batch ends the
  /// round), or one whole sharded round. Events carry target_round =
  /// rounds_completed() + rounds, as run(rounds) reports them. Because
  /// run() resumes at the round cursor, a split at any slice boundary is
  /// bit-identical to run(N): step() until rounds_completed() has risen by
  /// N equals run(N). This is the unit a scheduler interleaves across
  /// sessions (see serve/serve.h). The Status is run()'s: kCancelled /
  /// kDeadlineExceeded / kUnavailable leave the session at its last
  /// committed batch, and the slice is still pending. rounds == 0 is a
  /// no-op.
  Status step(int rounds, const RunControl& control = {});

  /// Estimated oracle work of the slice the next step() runs: the sum over
  /// the nets it routes (the batch at the round cursor, or every net of a
  /// sharded round) of sink count times clipped-window vertex count, the
  /// t·n of the oracle's O(t(n log n + m)) bound. A scheduler charges
  /// tenants this cost (serve/scheduler.h).
  std::uint64_t next_slice_work() const;

  /// Coherent snapshot of the current routing (timing/congestion/wire
  /// metrics recomputed from committed state). Valid after any run() —
  /// including one that returned kCancelled.
  RouterResult result() const;

  /// Like result(), but moves the per-net routes / delays / weights out
  /// instead of copying them. Consumes the session's routing state — only
  /// callable on an expiring session (`std::move(session).take_result()`),
  /// which must not be run() afterwards. This is the zero-copy final-answer
  /// path.
  RouterResult take_result() &&;

  /// Fully completed Lagrangean rounds. A round stopped inside (cancelled,
  /// or sliced by step()) does not count yet; the next run() continues it
  /// at the round cursor.
  int rounds_completed() const;

  const RouterOptions& options() const;

  /// Replaces the session options for subsequent rounds while KEEPING the
  /// accumulated prices, routes and multipliers — the warm-start path for
  /// re-routing after an option change. Grid and netlist stay fixed. When
  /// the session owns its thread pool and `options.threads` changed, the
  /// pool is rebuilt. kInvalidArgument (session unchanged) when
  /// batch_size < 1 or shards < 0. Inside a round (a batched round stopped
  /// at a non-zero cursor) the rest of the round routes under the new
  /// options, with one exception: switching between batched and sharded
  /// rounds (shards 0 <-> > 0) returns kFailedPrecondition, session
  /// unchanged, until the round is finished.
  Status set_options(const RouterOptions& options);

  /// Live per-sink Lagrange multipliers, flattened in netlist order.
  const std::vector<double>& sink_weights() const;
  /// Per-sink delays of the committed routes, flattened in netlist order.
  const std::vector<double>& sink_delays() const;

  /// Snapshot of the committed state. Valid after any run() — including
  /// one that returned kCancelled / kDeadlineExceeded, whose committed
  /// state is the last committed batch, recorded with the round cursor.
  /// restore()ing the snapshot into a session over the same grid/netlist/
  /// options and running the remaining rounds reproduces the uninterrupted
  /// run bit-identically.
  RouterCheckpoint checkpoint() const;

  /// Replaces the session's accumulated state (routes, multipliers, delays,
  /// round index and cursor; prices are rebuilt from the routes) with the
  /// checkpoint. kInvalidArgument on a malformed checkpoint (shape/bounds
  /// mismatches against this session's grid and netlist, a cursor past the
  /// last net, a negative or non-finite sink weight or delay),
  /// kFailedPrecondition when the checkpoint was taken under a
  /// different options.seed, or stopped inside a round while this session
  /// runs sharded rounds. On failure the session is unchanged.
  Status restore(const RouterCheckpoint& checkpoint);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace cdst
