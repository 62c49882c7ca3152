#include "serve/serve.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>

#include "api/scratch_pool.h"
#include "util/fault_injection.h"

namespace cdst::serve {
namespace {

/// Slice outcomes that pause a session with its pending work retained (the
/// resumable trio); anything else either succeeded or is consumed in-band
/// (solver jobs).
bool pauses_session(StatusCode code) {
  return code == StatusCode::kCancelled ||
         code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kUnavailable;
}

/// Estimated oracle work of one solve job: sink count times the vertex
/// count of its graph, the t·n a router slice is charged per net.
std::uint64_t job_work(const CdSolver::Job& job) {
  const CostDistanceInstance* inst = job.instance;
  if (inst == nullptr || (inst->graph == nullptr && inst->box == nullptr)) {
    return 0;  // refused in-band without a search
  }
  return static_cast<std::uint64_t>(inst->sinks.size()) *
         static_cast<std::uint64_t>(inst->num_vertices());
}

}  // namespace

/// Registry entry for one admitted tenant. Heap-held (unique_ptr) so its
/// address — which the aggregation sink points back into — survives
/// registry growth.
struct EngineServer::Session {
  /// Aggregates the tenant's slice events into the cross-thread stats
  /// mirror and forwards everything to the tenant's own sink. Runs on
  /// engine worker threads while a slice executes; touches only the
  /// stat_mu-guarded mirror.
  struct AggSink final : public EventSink {
    Session* session{nullptr};

    void on_solve_merge(const SolveMergeEvent& event) override {
      if (session->forward != nullptr) session->forward->on_solve_merge(event);
    }
    void on_job(const JobEvent& event) override {
      if (session->forward != nullptr) session->forward->on_job(event);
    }
    void on_router_shard(const RouterShardEvent& event) override {
      if (session->forward != nullptr) {
        session->forward->on_router_shard(event);
      }
    }
    void on_router_round(const RouterRoundEvent& event) override {
      if (event.round_complete || event.cancelled) {
        MutexLock lock(session->stat_mu);
        session->ace4 = event.ace4;
        session->max_utilization = event.max_utilization;
        session->overfull_edges = event.overfull_edges;
      }
      if (session->forward != nullptr) session->forward->on_router_round(event);
    }
    void on_fault(const FaultEvent& event) override {
      if (session->forward != nullptr) session->forward->on_fault(event);
    }
  };

  // Immutable after open().
  SessionId id{0};
  SessionKind kind{SessionKind::kRouter};
  std::string name;
  int weight{1};
  std::size_t projected{0};
  EventSink* forward{nullptr};  ///< tenant's own sink (borrowed)

  CancelToken cancel;  ///< thread-safe by itself; latched by cancel()

  // Data plane — controller thread only (see the class threading contract):
  // the live engine session objects and work queues a slice executes on.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  bool paused{false};  ///< last slice ended kCancelled/kDeadlineExceeded/...
  /// Work units the next slice costs, as last handed to the scheduler.
  std::uint64_t next_work{0};
  std::optional<Router> router;
  /// Rounds submitted to the router that no barrier has passed yet.
  int pending_rounds{0};
  std::optional<CdSolver> solver;
  std::deque<CdSolver::Job> jobs;
  std::deque<StatusOr<SolveResult>> ready;

  // Cross-thread stats mirror: written by the controller after every slice
  // and by the aggregation sink during one; read by stats() from any
  // thread. Lock order: EngineServer::mu_ before stat_mu.
  mutable Mutex stat_mu;
  Status last CDST_GUARDED_BY(stat_mu){Status::Ok()};
  bool runnable CDST_GUARDED_BY(stat_mu){false};
  std::size_t slices CDST_GUARDED_BY(stat_mu){0};
  std::uint64_t work_units CDST_GUARDED_BY(stat_mu){0};
  int rounds_completed CDST_GUARDED_BY(stat_mu){0};
  int rounds_submitted CDST_GUARDED_BY(stat_mu){0};
  std::size_t jobs_completed CDST_GUARDED_BY(stat_mu){0};
  std::size_t jobs_submitted CDST_GUARDED_BY(stat_mu){0};
  std::size_t ready_count CDST_GUARDED_BY(stat_mu){0};
  double ace4 CDST_GUARDED_BY(stat_mu){-1.0};
  double max_utilization CDST_GUARDED_BY(stat_mu){-1.0};
  std::size_t overfull_edges CDST_GUARDED_BY(stat_mu){0};

  AggSink sink;
};

EngineServer::EngineServer(Engine& engine, const ServeOptions& options)
    : engine_(engine),
      admission_(AdmissionLimits{
          options.max_sessions,
          options.admission_budget_bytes != 0
              ? options.admission_budget_bytes
              : static_cast<std::size_t>(
                    engine.dense_budget().capacity_bytes())}) {}

EngineServer::~EngineServer() = default;

EngineServer::Session* EngineServer::find_locked(SessionId id) const {
  for (const std::unique_ptr<Session>& s : sessions_) {
    if (s->id == id) return s.get();
  }
  return nullptr;
}

Status EngineServer::admit_locked(std::size_t projected_bytes) {
#if defined(CDST_FAULT_INJECTION)
  try {
    return admission_.admit(projected_bytes);
  } catch (const InjectedFault& e) {
    // The fault site fires before any bookkeeping, so the controller — and
    // the registry the caller never touched — are bit-identical to never
    // having seen the request.
    return Status::Unavailable(e.what());
  }
#else
  return admission_.admit(projected_bytes);
#endif
}

void EngineServer::refresh_runnable_locked(Session& session) {
  const bool pending = session.kind == SessionKind::kRouter
                           ? session.pending_rounds > 0
                           : !session.jobs.empty();
  const bool runnable = pending && !session.paused;
  if (pending) {
    session.next_work = session.kind == SessionKind::kRouter
                            ? session.router->next_slice_work()
                            : job_work(session.jobs.front());
  }
  scheduler_.set_runnable(session.id, runnable, session.next_work);
  MutexLock lock(session.stat_mu);
  session.runnable = runnable;
}

StatusOr<SessionId> EngineServer::open_router_session(
    const RoutingGrid& grid, const Netlist& netlist,
    const RouterOptions& router_options, const TenantOptions& tenant) {
  MutexLock lock(mu_);
  Status admitted = admit_locked(tenant.projected_dense_bytes);
  if (!admitted.ok()) return admitted;

  auto session = std::make_unique<Session>();
  session->id = next_id_++;
  session->kind = SessionKind::kRouter;
  session->name = tenant.name;
  session->weight = std::max(1, tenant.weight);
  session->projected = tenant.projected_dense_bytes;
  session->forward = tenant.events;
  session->deadline = tenant.deadline;
  session->sink.session = session.get();
  session->router.emplace(engine_.make_router(grid, netlist, router_options));

  const SessionId id = session->id;
  scheduler_.add(id, session->weight);
  sessions_.push_back(std::move(session));
  return id;
}

StatusOr<SessionId> EngineServer::open_solver_session(
    const SolverOptions& solver_options, const TenantOptions& tenant) {
  MutexLock lock(mu_);
  Status admitted = admit_locked(tenant.projected_dense_bytes);
  if (!admitted.ok()) return admitted;

  auto session = std::make_unique<Session>();
  session->id = next_id_++;
  session->kind = SessionKind::kSolver;
  session->name = tenant.name;
  session->weight = std::max(1, tenant.weight);
  session->projected = tenant.projected_dense_bytes;
  session->forward = tenant.events;
  session->deadline = tenant.deadline;
  session->sink.session = session.get();
  session->solver.emplace(engine_.make_solver(solver_options));

  const SessionId id = session->id;
  scheduler_.add(id, session->weight);
  sessions_.push_back(std::move(session));
  return id;
}

Status EngineServer::submit_rounds(SessionId id, int rounds) {
  if (rounds < 0) {
    return Status::InvalidArgument("serve: rounds must be >= 0");
  }
  MutexLock lock(mu_);
  Session* session = find_locked(id);
  if (session == nullptr) {
    return Status::InvalidArgument("serve: unknown session id");
  }
  if (session->kind != SessionKind::kRouter) {
    return Status::FailedPrecondition("serve: not a router session");
  }
  session->pending_rounds += rounds;
  {
    MutexLock stat_lock(session->stat_mu);
    session->rounds_submitted += rounds;
  }
  refresh_runnable_locked(*session);
  return Status::Ok();
}

Status EngineServer::submit_job(SessionId id, const CdSolver::Job& job) {
  MutexLock lock(mu_);
  Session* session = find_locked(id);
  if (session == nullptr) {
    return Status::InvalidArgument("serve: unknown session id");
  }
  if (session->kind != SessionKind::kSolver) {
    return Status::FailedPrecondition("serve: not a solver session");
  }
  session->jobs.push_back(job);
  {
    MutexLock stat_lock(session->stat_mu);
    ++session->jobs_submitted;
  }
  refresh_runnable_locked(*session);
  return Status::Ok();
}

Status EngineServer::cancel(SessionId id) {
  MutexLock lock(mu_);
  Session* session = find_locked(id);
  if (session == nullptr) {
    return Status::InvalidArgument("serve: unknown session id");
  }
  // Token only — the data plane may be mid-slice on the controller thread.
  // The session pauses with kCancelled at its next cancellation poll.
  session->cancel.request_cancel();
  return Status::Ok();
}

Status EngineServer::resume(SessionId id) {
  MutexLock lock(mu_);
  Session* session = find_locked(id);
  if (session == nullptr) {
    return Status::InvalidArgument("serve: unknown session id");
  }
  session->cancel.reset();
  session->paused = false;
  {
    MutexLock stat_lock(session->stat_mu);
    session->last = Status::Ok();
  }
  refresh_runnable_locked(*session);
  return Status::Ok();
}

Status EngineServer::set_deadline(
    SessionId id, std::optional<std::chrono::steady_clock::time_point> d) {
  MutexLock lock(mu_);
  Session* session = find_locked(id);
  if (session == nullptr) {
    return Status::InvalidArgument("serve: unknown session id");
  }
  session->deadline = d;
  return Status::Ok();
}

Status EngineServer::close(SessionId id) {
  MutexLock lock(mu_);
  const auto it = std::find_if(
      sessions_.begin(), sessions_.end(),
      [id](const std::unique_ptr<Session>& s) { return s->id == id; });
  if (it == sessions_.end()) {
    return Status::InvalidArgument("serve: unknown session id");
  }
  scheduler_.remove(id);
  admission_.release((*it)->projected);
  sessions_.erase(it);
  ++closed_total_;
  return Status::Ok();
}

StatusOr<RouterResult> EngineServer::result(SessionId id) const {
  MutexLock lock(mu_);
  Session* session = find_locked(id);
  if (session == nullptr) {
    return Status::InvalidArgument("serve: unknown session id");
  }
  if (session->kind != SessionKind::kRouter) {
    return Status::FailedPrecondition("serve: not a router session");
  }
  return session->router->result();
}

std::size_t EngineServer::results_ready(SessionId id) const {
  MutexLock lock(mu_);
  const Session* session = find_locked(id);
  if (session == nullptr || session->kind != SessionKind::kSolver) return 0;
  return session->ready.size();
}

StatusOr<SolveResult> EngineServer::pop_result(SessionId id) {
  MutexLock lock(mu_);
  Session* session = find_locked(id);
  if (session == nullptr) {
    return Status::InvalidArgument("serve: unknown session id");
  }
  if (session->kind != SessionKind::kSolver) {
    return Status::FailedPrecondition("serve: not a solver session");
  }
  if (session->ready.empty()) {
    return Status::FailedPrecondition("serve: no result ready");
  }
  StatusOr<SolveResult> result = std::move(session->ready.front());
  session->ready.pop_front();
  {
    MutexLock stat_lock(session->stat_mu);
    session->ready_count = session->ready.size();
  }
  return result;
}

Status EngineServer::session_status(SessionId id) const {
  MutexLock lock(mu_);
  const Session* session = find_locked(id);
  if (session == nullptr) {
    return Status::InvalidArgument("serve: unknown session id");
  }
  MutexLock stat_lock(session->stat_mu);
  return session->last;
}

Status EngineServer::run_slice(Session& session) {
  RunControl control;
  control.cancel = &session.cancel;
  control.events = &session.sink;
  control.deadline = session.deadline;
  // An expired deadline is the slice's own verdict: Router::step refuses
  // it with a cancelled round summary to the tenant's sink, and
  // CdSolver::solve before its first search.
  Status slice = Status::Ok();
  if (session.kind == SessionKind::kRouter) {
    // Heading for every pending round, so the slice's events carry the
    // tenant's absolute target round; only a barrier counts a round off.
    const int before = session.router->rounds_completed();
    slice = session.router->step(session.pending_rounds, control);
    session.pending_rounds -= session.router->rounds_completed() - before;
  } else {
    const CdSolver::Job job = session.jobs.front();
    StatusOr<SolveResult> result = session.solver->solve(job, control);
    const StatusCode code =
        result.ok() ? StatusCode::kOk : result.status().code();
    if (!result.ok() && pauses_session(code)) {
      // Resumable pause: the job stays queued and re-solves bit-identically
      // once the tenant is revived.
      slice = result.status();
    } else {
      // Success — or a non-retryable per-job failure, delivered in-band
      // through pop_result like SolveStream's StatusOr contract.
      session.jobs.pop_front();
      session.ready.push_back(std::move(result));
    }
  }

  session.paused = !slice.ok();
  MutexLock lock(session.stat_mu);
  session.last = slice;
  ++session.slices;
  session.work_units += session.next_work;  // what pick() charged
  if (session.kind == SessionKind::kRouter) {
    session.rounds_completed = session.router->rounds_completed();
  } else {
    session.jobs_completed = session.jobs_submitted - session.jobs.size();
    session.ready_count = session.ready.size();
  }
  return slice;
}

bool EngineServer::step() {
  Session* session = nullptr;
  {
    MutexLock lock(mu_);
    const std::optional<SessionId> picked = scheduler_.pick();
    if (!picked.has_value()) return false;
    session = find_locked(*picked);
    if (session == nullptr) return false;  // defensive: registry is the truth
  }
  // No lock across the slice: it fans out on the engine pool and delivers
  // events, and stats()/cancel() must stay reachable meanwhile.
  const Status slice = run_slice(*session);
  {
    MutexLock lock(mu_);
    ++slices_total_;
    if (slice.code() == StatusCode::kDeadlineExceeded) {
      ++deadline_expirations_;
    }
    refresh_runnable_locked(*session);
  }
  return true;
}

Status EngineServer::run_until_idle(const RunControl& control) {
  while (true) {
    if (control.cancel != nullptr && control.cancel->cancelled()) {
      return Status::Cancelled("serve: run_until_idle cancelled");
    }
    if (detail::deadline_expired(control)) {
      return detail::deadline_exceeded_status(
          "serve: run_until_idle deadline expired");
    }
    if (!step()) return Status::Ok();
  }
}

ServeStats EngineServer::stats() const {
  ServeStats out;
  MutexLock lock(mu_);
  out.sessions_open = sessions_.size();
  out.admitted_total = admission_.admitted_total();
  out.rejected_total = admission_.rejected_total();
  out.closed_total = closed_total_;
  out.slices_total = slices_total_;
  out.deadline_expirations = deadline_expirations_;
  out.projected_bytes = admission_.projected_bytes();
  out.admission_budget_bytes = admission_.limits().max_projected_bytes;
  out.budget_capacity_bytes = engine_.dense_budget().capacity_bytes();
  out.budget_peak_bytes = engine_.dense_budget().peak_reserved_bytes();
  out.tenants.reserve(sessions_.size());
  for (const std::unique_ptr<Session>& session : sessions_) {
    TenantSnapshot t;
    t.id = session->id;
    t.name = session->name;
    t.kind = session->kind;
    t.weight = session->weight;
    t.projected_dense_bytes = session->projected;
    {
      MutexLock stat_lock(session->stat_mu);
      t.runnable = session->runnable;
      t.last_status = session->last.code();
      t.slices_run = session->slices;
      t.work_units = session->work_units;
      t.rounds_completed = session->rounds_completed;
      t.rounds_submitted = session->rounds_submitted;
      t.jobs_completed = session->jobs_completed;
      t.jobs_submitted = session->jobs_submitted;
      t.results_ready = session->ready_count;
      t.ace4 = session->ace4;
      t.max_utilization = session->max_utilization;
      t.overfull_edges = session->overfull_edges;
    }
    if (t.runnable) ++out.queue_depth;
    out.worst_ace4 = std::max(out.worst_ace4, t.ace4);
    out.worst_max_utilization =
        std::max(out.worst_max_utilization, t.max_utilization);
    out.overfull_edges_total += t.overfull_edges;
    out.tenants.push_back(std::move(t));
  }
  return out;
}

}  // namespace cdst::serve
