#include "api/cd_solver.h"

#include <atomic>
#include <string>
#include <utility>

#include "api/events.h"
#include "api/scratch_pool.h"
#include "util/fault_injection.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace cdst {
namespace detail {

SolveMergeEvent to_event(const MergeTick& tick) {
  SolveMergeEvent event;
  event.merges_done = tick.merges_done;
  event.merges_total = tick.merges_total;
  event.labels_settled = tick.labels_settled;
  event.completions_popped = tick.completions_popped;
  return event;
}

Status solve_into(const CostDistanceInstance& instance,
                  const SolverOptions& options, SolverScratch* scratch,
                  const SolveControls* controls, SolveResult* out) {
  try {
    *out = solve_cost_distance(instance, options, scratch, controls);
    return Status::Ok();
  } catch (const SolveCancelled&) {
    return Status::Cancelled("cost-distance solve cancelled");
  } catch (const SolveDeadlineExceeded& e) {
    return deadline_exceeded_status(e.what());
  } catch (const InjectedFault& e) {
    return Status::Unavailable(e.what());
  } catch (const ContractViolation& e) {
    return Status::InvalidArgument(e.what());
  } catch (const std::exception& e) {
    return Status::Internal(e.what());
  }
}

}  // namespace detail

CdSolver::CdSolver(SolverOptions options, ThreadPool* pool)
    : options_(std::move(options)),
      pool_(pool),
      scratch_(std::make_unique<detail::SolverScratchPool>()),
      dense_budget_(options_.dense_state_budget_bytes),
      active_streams_(std::make_shared<std::atomic<int>>(0)) {}

CdSolver::~CdSolver() = default;
CdSolver::CdSolver(CdSolver&&) noexcept = default;
CdSolver& CdSolver::operator=(CdSolver&&) noexcept = default;

SolverOptions CdSolver::resolve_job_options(const Job& job) {
  SolverOptions opts = options_;
  if (job.future_cost != nullptr) opts.future_cost = job.future_cost;
  if (job.seed.has_value()) opts.seed = *job.seed;
  if (opts.shared_dense_budget == nullptr) {
    // All lanes of this session draw from its one atomic pool.
    opts.shared_dense_budget = &dense_budget_;
  }
  return opts;
}

StatusOr<SolveResult> CdSolver::solve(const CostDistanceInstance& instance,
                                      const RunControl& control) {
  Job job;
  job.instance = &instance;
  return solve(job, control);
}

StatusOr<SolveResult> CdSolver::solve(const Job& job,
                                      const RunControl& control) {
  if (job.instance == nullptr) {
    return Status::InvalidArgument("solve job has no instance");
  }
  maybe_reset_budget();
  const SolverOptions opts = resolve_job_options(job);

  const detail::EventFan fan(control);
  SolveControls controls = detail::make_solve_controls(control);
  if (fan.active()) {
    controls.on_merge = [&fan](const MergeTick& tick) {
      fan.emit_solve_merge(detail::to_event(tick));
    };
  }

  const detail::SolverScratchPool::Lease lease = scratch_->lease();
  SolveResult result;
  Status status =
      detail::solve_into(*job.instance, opts, lease.get(), &controls,
                         &result);
  if (!status.ok()) return status;
  return result;
}

StatusOr<std::vector<SolveResult>> CdSolver::solve_batch(
    std::span<const Job> jobs, const RunControl& control) {
  std::vector<SolveResult> results(jobs.size());
  if (jobs.empty()) return results;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].instance == nullptr) {
      return Status::InvalidArgument("batch job " + std::to_string(i) +
                                     " has no instance");
    }
  }
  maybe_reset_budget();

  const std::atomic<bool>* cancel_flag =
      control.cancel != nullptr ? &control.cancel->flag() : nullptr;
  const detail::EventFan fan(control);
  std::vector<Status> statuses(jobs.size());
  // The analysis cannot tie a local's guard to a local mutex (GUARDED_BY
  // needs member scope); the MutexLock discipline still serializes them.
  std::size_t completed = 0;  // guarded by progress_mu
  Mutex progress_mu;

  // Serialized so sinks need not be thread-safe, and the count is
  // incremented under the same lock so `completed` is strictly monotonic
  // across events. It is a completion count, not an index (completion order
  // varies; the final results never do).
  const auto emit_job_event = [&](std::size_t i) {
    if (!fan.active()) return;
    MutexLock lock(progress_mu);
    JobEvent event;
    event.index = i;
    event.completed = ++completed;
    event.submitted = jobs.size();
    event.status = statuses[i].code();
    fan.emit_job(event);
  };

  const std::function<void(std::size_t)> body = [&](std::size_t i) {
    if (cancel_flag != nullptr &&
        cancel_flag->load(std::memory_order_relaxed)) {
      statuses[i] = Status::Cancelled("batch cancelled before this instance");
      return;
    }
    if (detail::deadline_expired(control)) {
      statuses[i] = detail::deadline_exceeded_status(
          "batch deadline expired before this instance");
      return;
    }
    const SolverOptions opts = resolve_job_options(jobs[i]);
    SolveControls controls = detail::make_solve_controls(control);

    const detail::SolverScratchPool::Lease lease = scratch_->lease();
    statuses[i] =
        detail::solve_into(*jobs[i].instance, opts, lease.get(), &controls,
                           &results[i]);
    emit_job_event(i);
  };

  // Per-job failures land in statuses[i]; only a fault injected in the pool
  // layer itself ("pool.task") can escape the barrier, since every body
  // maps its own exceptions to a Status.
  try {
    if (pool_ != nullptr) {
      pool_->parallel_for(0, jobs.size(), body);
    } else {
      for (std::size_t i = 0; i < jobs.size(); ++i) body(i);
    }
  } catch (const InjectedFault& e) {
    return Status::Unavailable(e.what());
  }

  if (cancel_flag != nullptr && cancel_flag->load(std::memory_order_relaxed)) {
    return Status::Cancelled("solve_batch cancelled");
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!statuses[i].ok()) return statuses[i];
  }
  return results;
}

StatusOr<std::vector<SolveResult>> CdSolver::solve_batch(
    std::span<const CostDistanceInstance> instances,
    const RunControl& control) {
  std::vector<Job> jobs(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    jobs[i].instance = &instances[i];
  }
  return solve_batch(std::span<const Job>(jobs), control);
}

}  // namespace cdst
