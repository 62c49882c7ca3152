/// \file serve/stats.h
/// Cross-session observability snapshot of the serving core — what an
/// operator sees of the fleet: per-tenant progress, global congestion
/// telemetry, queue depth, and the dense-state budget high-water.
///
/// Everything here is plain copied data: EngineServer::stats() assembles a
/// snapshot under its locks and hands it out by value, so readers never
/// hold a lock into the server and the snapshot stays coherent (one
/// consistent registry walk, not a torn view).

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "api/status.h"

namespace cdst::serve {

/// Registry handle of an admitted session. Ids are dense, start at 1, and
/// are never reused within one EngineServer.
using SessionId = std::uint64_t;

/// What kind of workload a session slices: Lagrangean router rounds or
/// single cost-distance solves.
enum class SessionKind : std::uint8_t { kRouter, kSolver };

/// Per-tenant view within a ServeStats snapshot.
struct TenantSnapshot {
  SessionId id{0};
  std::string name;  ///< TenantOptions::name (may be empty)
  SessionKind kind{SessionKind::kRouter};
  int weight{1};  ///< fair-scheduler share of oracle work
  /// True when the scheduler may pick the session: it has pending work and
  /// its last slice did not pause it (cancel / deadline / failure).
  bool runnable{false};
  StatusCode last_status{StatusCode::kOk};  ///< most recent slice outcome
  std::size_t slices_run{0};
  /// Oracle work charged to the tenant so far, in the scheduler's units
  /// (sink count x window vertices per routed net or solved job), charged
  /// when a slice is picked, also for one that a cancel or deadline then
  /// refuses. Backlogged tenants accrue it in proportion to their weights.
  std::uint64_t work_units{0};
  /// Dense-state bytes the tenant declared at admission (what the
  /// admission controller charges against its budget).
  std::size_t projected_dense_bytes{0};

  // Router sessions: absolute Lagrangean round progress.
  int rounds_completed{0};
  int rounds_submitted{0};

  // Solver sessions: job progress (ready = solved, not yet popped).
  std::size_t jobs_completed{0};
  std::size_t jobs_submitted{0};
  std::size_t results_ready{0};

  // Congestion telemetry of the tenant's latest round barrier (router
  // sessions; negative / zero until the first round_complete event).
  double ace4{-1.0};
  double max_utilization{-1.0};
  std::size_t overfull_edges{0};
};

/// Fleet-wide snapshot: EngineServer::stats(). Safe to call from any
/// thread.
struct ServeStats {
  std::size_t sessions_open{0};
  std::size_t queue_depth{0};  ///< sessions the scheduler may pick right now
  std::size_t admitted_total{0};
  std::size_t rejected_total{0};  ///< admissions refused (kResourceExhausted)
  std::size_t closed_total{0};
  std::size_t slices_total{0};  ///< scheduling quanta executed
  std::size_t deadline_expirations{0};  ///< slices that paused on a deadline

  /// Sum of admitted tenants' projected dense-state bytes, and the limit it
  /// is admitted against.
  std::size_t projected_bytes{0};
  std::size_t admission_budget_bytes{0};
  /// The engine's shared DenseStateBudget: configured capacity and the
  /// high-water of actual reservations across every tenant so far.
  std::int64_t budget_capacity_bytes{0};
  std::int64_t budget_peak_bytes{0};

  // Global congestion telemetry: the worst values across all tenants'
  // latest round barriers (negative until some tenant completed a round).
  double worst_ace4{-1.0};
  double worst_max_utilization{-1.0};
  std::size_t overfull_edges_total{0};

  std::vector<TenantSnapshot> tenants;  ///< admission order
};

}  // namespace cdst::serve
