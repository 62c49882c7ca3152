/// \file serve/serve.h
/// The multi-tenant serving core: admission, fair scheduling and fleet
/// observability over one Engine.
///
/// An Engine (api/engine.h) is a factory plus shared substrate — one
/// ThreadPool, one DenseStateBudget. EngineServer is the layer above it
/// that makes the substrate *servable*: it owns a session registry, admits
/// tenants against configured limits (serve/admission.h), and time-slices
/// the admitted sessions' work across the one pool with a deterministic
/// fair scheduler (serve/scheduler.h) whose weights are shares of
/// estimated oracle work. The slicing unit is one batch of a
/// Router round, or one whole sharded round (one Router::step, which
/// resumes at the session's round cursor, so any split is bit-identical to
/// run()), or a single cost-distance solve. N routers and M solver streams
/// interleave at batch/job granularity on one pool, and each slice still
/// fans out across every worker.
///
/// Flow: admission -> schedule -> slice -> aggregate.
///   open_*_session()  admission check (kResourceExhausted on queue depth
///                     or projected dense-state overflow), registry entry,
///                     scheduler entry
///   submit_*()        queues rounds/jobs; the session becomes runnable
///   step()            one scheduling quantum: pick the tenant with the
///                     least virtual finish tag, charging it the slice's
///                     estimated work (Router::next_slice_work, or sinks x
///                     vertices of the front job), run the slice on the
///                     calling thread (Router::step toward every pending
///                     round, or one solve), fold the outcome back into the
///                     registry; a router tenant's pending rounds drop at
///                     round barriers only
///   stats()           fleet snapshot: per-tenant progress, queue depth,
///                     worst-case congestion telemetry, budget high-water
///
/// Wait bound: a tenant that becomes runnable waits at most until its
/// finish tag is the least, so a cheap solve that arrives while router
/// tenants are backlogged runs at the next slice boundary; what it still
/// waits for is the slice already running.
///
/// Determinism: the scheduler is deterministic and slices of different
/// sessions touch disjoint session state, so any serve schedule commits,
/// per tenant, exactly the rounds/jobs a serial run would — bit-identical
/// results at any thread count, shard count or interleaving. The
/// serve tests verify this across a tenants x threads x shards matrix.
///
/// Pause/resume: a slice that returns kCancelled, kDeadlineExceeded or
/// kUnavailable pauses its session at the last committed boundary (its
/// last committed batch, keeping its place in the round / before the job);
/// the session's state is coherent and the pending work is retained.
/// resume() re-arms it (resetting its cancel token); set_deadline() extends
/// or clears a tenant deadline first if that is what paused it. Deadlines
/// propagate into every slice's RunControl, so an expiring tenant yields at
/// the next batch/round boundary without perturbing any other tenant. A
/// slice picked after its deadline passed is refused by the session
/// itself, so a router tenant's sink still receives its cancelled round
/// summary.
///
/// Threading contract: ONE controller thread owns the lifecycle and the
/// pump — open/submit/resume/set_deadline/close/result/pop_result/step/
/// run_until_idle. From any thread: cancel() (latches the tenant's token;
/// the session pauses at its next cancellation poll) and stats(). Internal
/// locks: `mu_` guards the registry, scheduler and admission bookkeeping
/// and is never held while a slice runs; each session's `stat_mu` guards
/// its cross-thread stats mirror, written by the controller after every
/// slice and by the event-aggregation sink on engine worker threads during
/// one (lock order: mu_ before stat_mu; never both across a slice).
///
/// The EngineServer borrows the Engine and must not outlive it; tenants'
/// grids and netlists are borrowed for the session lifetime, like Router's
/// own contract.

#pragma once

#include <chrono>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/engine.h"
#include "serve/admission.h"
#include "serve/scheduler.h"
#include "serve/stats.h"
#include "util/thread_annotations.h"

namespace cdst::serve {

/// Server-wide configuration.
struct ServeOptions {
  /// Maximum concurrently open sessions (admission queue-depth bound).
  std::size_t max_sessions{64};
  /// Admission limit on the sum of tenants' projected dense-state bytes; 0
  /// means the capacity of the engine's shared DenseStateBudget, so by
  /// default admitted projections can never plan past the memory that
  /// actually exists.
  std::size_t admission_budget_bytes{0};
};

/// Per-tenant admission-time configuration.
struct TenantOptions {
  std::string name;  ///< label surfaced in ServeStats (may be empty)
  /// Fair-scheduler weight: the tenant's share of oracle work while it and
  /// others are backlogged (< 1 -> 1).
  int weight{1};
  /// Dense-state bytes this session is projected to reserve — what
  /// admission charges against ServeOptions::admission_budget_bytes. 0
  /// projects nothing (admitted on queue depth alone).
  std::size_t projected_dense_bytes{0};
  /// Tenant deadline, propagated into every slice's RunControl: on expiry
  /// the session pauses with kDeadlineExceeded at the next batch/round
  /// boundary, resumable after set_deadline() + resume().
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Optional tenant observer: receives every event of the tenant's slices
  /// (same EventSink contract as RunControl::events). Borrowed; must
  /// outlive the session.
  EventSink* events{nullptr};
};

class EngineServer {
 public:
  /// Borrows `engine` (must outlive the server). Resolves a zero
  /// admission_budget_bytes to the engine budget's capacity.
  explicit EngineServer(Engine& engine, const ServeOptions& options = {});
  ~EngineServer();
  EngineServer(const EngineServer&) = delete;
  EngineServer& operator=(const EngineServer&) = delete;

  /// Admits a router tenant: admission check, then a Router session on the
  /// engine's pool and budget. Its slices run with the tenant's cancel
  /// token, deadline and event aggregation wired in.
  /// kResourceExhausted when admission refuses; the registry is untouched
  /// on any failure. Grid and netlist are borrowed for the session.
  StatusOr<SessionId> open_router_session(const RoutingGrid& grid,
                                          const Netlist& netlist,
                                          const RouterOptions& router_options,
                                          const TenantOptions& tenant = {});

  /// Admits a solver tenant: one CdSolver on the engine's pool and budget;
  /// each submitted job is one scheduling slice.
  StatusOr<SessionId> open_solver_session(const SolverOptions& solver_options,
                                          const TenantOptions& tenant = {});

  /// Queues `rounds` more Lagrangean rounds on a router session.
  Status submit_rounds(SessionId id, int rounds);
  /// Queues one solve job on a solver session. The job's instance (and
  /// oracle) are borrowed until the job's result is popped.
  Status submit_job(SessionId id, const CdSolver::Job& job);

  /// Latches the tenant's cancel token — callable from any thread, e.g. an
  /// event handler. The session pauses with kCancelled at its next
  /// cancellation poll; other tenants are unaffected.
  Status cancel(SessionId id);
  /// Re-arms a paused session (resets its cancel token); it becomes
  /// runnable again if it has pending work. Clear or extend the tenant's
  /// deadline first when expiry is what paused it.
  Status resume(SessionId id);
  /// Replaces the tenant's deadline for subsequent slices (nullopt clears).
  Status set_deadline(
      SessionId id,
      std::optional<std::chrono::steady_clock::time_point> deadline);
  /// Closes a session, releasing its admission projection. Pending work is
  /// discarded; committed results are gone with it — snapshot result()
  /// first if needed.
  Status close(SessionId id);

  /// Coherent routing snapshot of a router session (Router::result()).
  StatusOr<RouterResult> result(SessionId id) const;
  /// Solved jobs not yet popped from a solver session (0 for unknown ids).
  std::size_t results_ready(SessionId id) const;
  /// Pops the oldest solved job, in submission order. Per-job failures
  /// surface here in-band (the slice consumed the job); kFailedPrecondition
  /// when no result is ready.
  StatusOr<SolveResult> pop_result(SessionId id);
  /// Outcome of the session's most recent slice (kOk before the first).
  Status session_status(SessionId id) const;

  /// One scheduling quantum on the calling thread: picks the next tenant
  /// and runs one slice (one batch of a router round, one
  /// sharded round, or one solve).
  /// Returns false — without running anything — when no session is
  /// runnable.
  bool step();
  /// step()s until no session is runnable. The control's cancel token and
  /// deadline are checked between slices: kCancelled / kDeadlineExceeded
  /// stops the pump (sessions keep their state; call again to continue).
  /// Paused sessions do not count as runnable, so the pump returns kOk once
  /// every session is drained or paused.
  Status run_until_idle(const RunControl& control = {});

  /// Fleet snapshot; safe from any thread.
  ServeStats stats() const;

 private:
  struct Session;

  Session* find_locked(SessionId id) const CDST_REQUIRES(mu_);
  /// Admission with the "serve.admit" fault site mapped onto the Status
  /// contract (an injected fault surfaces as kUnavailable, bookkeeping
  /// untouched).
  Status admit_locked(std::size_t projected_bytes) CDST_REQUIRES(mu_);
  /// Recomputes whether the scheduler may pick the session and mirrors the
  /// flag into the session's stats.
  void refresh_runnable_locked(Session& session) CDST_REQUIRES(mu_);
  /// Executes one slice of `session` on the calling thread (no locks held)
  /// and folds the outcome into the session's mirror. Returns the slice
  /// Status.
  Status run_slice(Session& session);

  Engine& engine_;

  mutable Mutex mu_;
  std::vector<std::unique_ptr<Session>> sessions_ CDST_GUARDED_BY(mu_);
  FairScheduler scheduler_ CDST_GUARDED_BY(mu_);
  AdmissionController admission_ CDST_GUARDED_BY(mu_);
  SessionId next_id_ CDST_GUARDED_BY(mu_){1};
  std::size_t slices_total_ CDST_GUARDED_BY(mu_){0};
  std::size_t deadline_expirations_ CDST_GUARDED_BY(mu_){0};
  std::size_t closed_total_ CDST_GUARDED_BY(mu_){0};
};

}  // namespace cdst::serve
