/// \file dist/wire.h
/// Serializable messages of the distributed shard-round protocol.
///
/// One sharded rip-up & re-route round (api/router.h, shards >= 1) is, per
/// shard, a pure function of frozen round inputs; these messages carry
/// exactly those inputs and the shard's outputs across a process boundary:
///
///   WorkerSetupMsg    — the round-invariant world (grid geometry, netlist,
///                       oracle/congestion knobs, session seed); sent once
///                       per worker, re-sent only when set_options changes it.
///   PriceSnapshotMsg  — the round's frozen committed usage, one value per
///                       resource; the worker prices from it exactly as the
///                       session does. Sent once per (worker, round).
///   ShardWorkMsg      — one span of a shard's nets: per net its sink
///                       weights and committed route (whose usage the net
///                       prices out — the rip-up, in frozen-round terms),
///                       plus its round and shard indexes.
///   ShardResultMsg    — the span's route deltas: per net the re-routed
///                       grid edges and sink delays.
///   WorkerErrorMsg    — a typed Status a worker sends instead of a result.
///
/// Every message is versioned and magic-prefixed in the overflow-safe style
/// of RouterCheckpoint: fixed little-endian layout (util/wire.h), header
/// validated before any field read, every count checked against the unread
/// remainder, exact byte consumption required. from_bytes rejects malformed
/// bytes with kInvalidArgument and never crashes — workers parse bytes from
/// a pipe a dying peer may have truncated mid-frame.
///
/// Pointer-valued knobs (SolverOptions::future_cost / shared_dense_budget)
/// are deliberately NOT serialized: the executor wires per-process
/// equivalents back in (dist/shard_executor.h), and whether a solve lands
/// dense or sparse never changes results, so placement is result-invariant.
/// Neither are the per-solve seeds (OracleParams::seed, SolverOptions::seed):
/// route_round_net derives both from the session seed, net and round.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "api/status.h"
#include "grid/cost_model.h"
#include "route/net.h"
#include "route/steiner_oracle.h"

namespace cdst::dist {

/// Four-character message magic, little-endian ("CDwk" reads forward in a
/// hex dump of the frame head).
constexpr std::uint32_t fourcc(char a, char b, char c, char d) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24;
}

inline constexpr std::uint32_t kWorkerSetupMagic = fourcc('C', 'D', 's', 'u');
inline constexpr std::uint32_t kPriceSnapshotMagic =
    fourcc('C', 'D', 's', 'n');
inline constexpr std::uint32_t kShardWorkMagic = fourcc('C', 'D', 'w', 'k');
inline constexpr std::uint32_t kShardResultMagic = fourcc('C', 'D', 'r', 's');
inline constexpr std::uint32_t kWorkerErrorMagic = fourcc('C', 'D', 'e', 'r');

/// One version for the whole protocol: the messages only ever travel
/// together, so they revise together. Version 2 ships per-resource usage
/// instead of per-edge prices and drops the per-net frozen usage; version 3
/// drops two solver knobs that became constants (result validation and the
/// shared-budget backoff); version 4 drops the search-state pooling knob;
/// version 5 drops the knobs that became constants (the SL/PD topology
/// parameters, the strict shared budget, the congestion smoothing), the
/// per-solve seeds no worker reads, and the work's shard count and tile.
inline constexpr std::uint32_t kDistWireVersion = 5;

/// The round-invariant world a shard worker reconstructs once. Grid geometry
/// travels as the RoutingGrid constructor inputs (nx/ny/layers/via): the
/// grid build is deterministic, so both sides derive identical edge ids and
/// resources from identical specs.
struct WorkerSetupMsg {
  std::int32_t nx{1};
  std::int32_t ny{1};
  std::vector<LayerSpec> layers;
  ViaSpec via;
  Netlist netlist;
  SteinerMethod method{SteinerMethod::kCD};
  OracleParams oracle;  ///< pointer members and seeds not shipped (see above)
  CongestionParams congestion;
  std::uint64_t options_seed{1};

  std::vector<std::uint8_t> to_bytes() const;
  static StatusOr<WorkerSetupMsg> from_bytes(
      std::span<const std::uint8_t> bytes);
};

/// The committed usage one round prices from (CongestionCosts::usages()),
/// indexed by ResourceId of the setup grid. The executor validates it
/// (dist/shard_executor.h load_snapshot) before loading it.
struct PriceSnapshotMsg {
  std::int32_t round{0};
  std::vector<double> usage;

  std::vector<std::uint8_t> to_bytes() const;
  static StatusOr<PriceSnapshotMsg> from_bytes(
      std::span<const std::uint8_t> bytes);
};

/// One shard's work for one round. Nets reference the setup netlist by
/// index; sink-less nets are never included (the round skips them at the
/// merge too).
struct ShardWorkMsg {
  /// Per-net round state the executor cannot derive from the setup.
  struct NetWork {
    std::uint32_t net{0};  ///< index into WorkerSetupMsg::netlist.nets
    /// Live Lagrange multipliers of this net's sinks, in sink order.
    std::vector<double> sink_weights;
    /// The net's committed route (priced out of its own window).
    std::vector<std::uint32_t> route_edges;
  };

  std::int32_t round{0};
  std::int32_t shard{0};  ///< echoed by the reply, which must match it
  std::vector<NetWork> nets;

  std::vector<std::uint8_t> to_bytes() const;
  static StatusOr<ShardWorkMsg> from_bytes(
      std::span<const std::uint8_t> bytes);
};

/// One shard's outputs: everything the round barrier merges, in work order.
struct ShardResultMsg {
  struct NetResult {
    std::uint32_t net{0};
    std::vector<std::uint32_t> route_edges;  ///< re-routed tree, grid edges
    std::vector<double> sink_delays;         ///< per sink, in sink order
  };

  std::int32_t round{0};
  std::int32_t shard{0};
  std::vector<NetResult> nets;

  std::vector<std::uint8_t> to_bytes() const;
  static StatusOr<ShardResultMsg> from_bytes(
      std::span<const std::uint8_t> bytes);
};

/// A typed failure a worker reports instead of a ShardResultMsg.
struct WorkerErrorMsg {
  StatusCode code{StatusCode::kInternal};
  std::string message;

  std::vector<std::uint8_t> to_bytes() const;
  static StatusOr<WorkerErrorMsg> from_bytes(
      std::span<const std::uint8_t> bytes);

  Status to_status() const;
  static WorkerErrorMsg from_status(const Status& status);
};

}  // namespace cdst::dist
