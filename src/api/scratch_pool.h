/// \file api/scratch_pool.h
/// Internal session-layer helpers shared by CdSolver and Router: the leased
/// lane free list (SolverScratch, plus Router's recycled oracle) and the
/// RunControl -> SolveControls mapping.
/// The in-tree bench harnesses (cost_increase_common.h) lease scratch from
/// here too — a deliberate repo-internal dependency. Everything in
/// cdst::detail is outside the supported api/cdst.h surface and may change
/// shape between releases.
///
/// Parallel batch work (CdSolver::solve_batch, Router's per-net oracle
/// calls) hands out work by index, not by worker, so scratch cannot be
/// per-thread; instead each task leases a lane for its duration. The pool
/// grows to the concurrency high-water mark and recycles from there on.
/// Scratch contents never influence results (see SolverScratch), so the
/// lease order — which does vary with thread count — is immaterial.

#pragma once

#include <chrono>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "api/run_control.h"
#include "api/status.h"
#include "core/cost_distance.h"
#include "util/thread_annotations.h"

namespace cdst {
struct SolveMergeEvent;  // api/events.h
}  // namespace cdst

namespace cdst::detail {

/// The one mapping from a caller's RunControl onto the core solver's
/// cooperative controls (cancel flag + deadline + poll interval; event
/// wiring stays call-site specific). All session objects use this, so their
/// cancellation/deadline semantics cannot drift apart — including the
/// "cancel_poll_interval == 0 means the default" substitution, which
/// happens here and nowhere else.
inline SolveControls make_solve_controls(const RunControl& control) {
  SolveControls controls;
  if (control.cancel != nullptr) controls.cancel = &control.cancel->flag();
  controls.deadline = control.deadline;
  controls.cancel_poll_interval = control.cancel_poll_interval > 0
                                      ? control.cancel_poll_interval
                                      : kDefaultCancelPollInterval;
  return controls;
}

/// True iff the control's deadline has passed (no deadline never expires).
/// The boundary-check twin of core-side deadline_expired(SolveControls*):
/// sessions call this at batch/round/job boundaries, where there is no
/// SolveControls in scope.
inline bool deadline_expired(const RunControl& control) {
  return control.deadline.has_value() &&
         std::chrono::steady_clock::now() >= *control.deadline;
}

// The one origin of the kDeadlineExceeded / kResourceExhausted codes
// outside status.h (enforced by scripts/check_invariants.py rule
// `status-origin`): both codes carry machine semantics — "the deadline you
// set expired" and "this can never fit, do not retry" — that would decay
// into noise if ad-hoc call sites could mint them for other conditions.

inline Status deadline_exceeded_status(std::string_view msg) {
  return Status::DeadlineExceeded(msg);
}

inline Status resource_exhausted_status(std::string_view msg) {
  return Status::ResourceExhausted(msg);
}

/// Runs one solve against leased scratch and maps every failure mode onto
/// the structured status contract (defined in cd_solver.cpp; shared with
/// the SolveStream lanes so the status mapping cannot drift).
Status solve_into(const CostDistanceInstance& instance,
                  const SolverOptions& options, SolverScratch* scratch,
                  const SolveControls* controls, SolveResult* out);

/// Core merge tick -> typed api event (defined in cd_solver.cpp).
SolveMergeEvent to_event(const MergeTick& tick);

/// Free list of per-task lanes: a task leases a Lane for its duration and
/// the pool recycles it from there on. CdSolver's lanes are bare
/// SolverScratch; Router sessions and shard executors lease OracleLanes
/// (route/steiner_oracle.h), which also carry the recycled OracleInstance
/// each net is rebuilt into. The pool is owned by the session or context,
/// so lane memory never outlives it or leaks between tenants.
///
/// A lease prefers the lane its thread released last, so a worker keeps
/// routing into buffers that are warm in its cache and were allocated from
/// its own malloc arena; otherwise it takes any free lane. The lane count
/// stays bounded by the lease concurrency either way.
template <class Lane>
class LanePool {
 public:
  /// RAII lease; returns the lane on destruction (exception-safe).
  class Lease {
   public:
    Lease(LanePool& pool, Lane* lane) : pool_(&pool), lane_(lane) {}
    ~Lease() {
      if (lane_ != nullptr) pool_->release(lane_);
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    Lane* get() const { return lane_; }

   private:
    LanePool* pool_;
    Lane* lane_;
  };

  /// Leases a free lane, or builds a new one when none is free (a recycled
  /// lane is handed out as its last user left it).
  Lease lease() { return Lease(*this, acquire()); }

 private:
  // cdst-lint: allow(raw-thread) only the id of the releasing thread is
  // kept; nothing is spawned.
  using ThreadId = std::thread::id;

  struct FreeLane {
    Lane* lane;
    ThreadId last_user;
  };

  Lane* acquire() {
    {
      MutexLock lock(mu_);
      if (!free_.empty()) {
        const ThreadId self = std::this_thread::get_id();
        auto pick = free_.end() - 1;
        for (auto it = free_.begin(); it != free_.end(); ++it) {
          if (it->last_user == self) pick = it;
        }
        Lane* lane = pick->lane;
        free_.erase(pick);
        return lane;
      }
    }
    auto lane = std::make_unique<Lane>();
    Lane* raw = lane.get();
    MutexLock lock(mu_);
    owned_.push_back(std::move(lane));
    return raw;
  }

  void release(Lane* lane) {
    MutexLock lock(mu_);
    free_.push_back(FreeLane{lane, std::this_thread::get_id()});
  }

  Mutex mu_;
  std::vector<std::unique_ptr<Lane>> owned_ CDST_GUARDED_BY(mu_);
  std::vector<FreeLane> free_ CDST_GUARDED_BY(mu_);
};

/// CdSolver's pool (a class, not an alias, so cd_solver.h can forward
/// declare it).
class SolverScratchPool : public LanePool<SolverScratch> {};

}  // namespace cdst::detail
