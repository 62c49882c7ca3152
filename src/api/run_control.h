/// \file api/run_control.h
/// Cooperative observation and cancellation for long-running engine calls
/// (CdSolver::solve / solve_batch / SolveStream, Router::run).
///
/// The controller thread owns a CancelToken and hands a RunControl to the
/// engine call; the engine polls the token at bounded intervals and returns
/// a clean kCancelled Status — committed state (a Router's finished rounds,
/// a batch solve's completed instances, a stream's delivered results) is
/// never corrupted by cancellation. Observation goes through the typed
/// EventSink of api/events.h: solver merge ticks, per-job completions, and
/// router round/shard boundaries with congestion stats.

#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>

namespace cdst {

class EventSink;  // api/events.h

/// Thread-safe cancellation flag. The controller calls request_cancel()
/// (from any thread, including an event handler); the engine observes it
/// within one poll interval. Reusable across calls via reset().
///
/// Deliberately lock-free — the flag is polled from solver hot loops, so it
/// carries no mutex for the thread-safety analysis to track; relaxed
/// ordering suffices because the flag is a latch that only ever gates
/// control flow (cancellation latency, not data, is the contract). reset()
/// is the one exception: it must not be called concurrently with an engine
/// call observing the token (the sessions document this).
class CancelToken {
 public:
  void request_cancel() { flag_.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return flag_.load(std::memory_order_relaxed); }
  void reset() { flag_.store(false, std::memory_order_relaxed); }

  /// The raw flag the core layers poll (they do not know about tokens).
  const std::atomic<bool>& flag() const { return flag_; }

 private:
  std::atomic<bool> flag_{false};
};

/// The substitute for RunControl::cancel_poll_interval == 0 ("0 means the
/// default"), applied once in detail::make_solve_controls so the core never
/// sees a zero interval.
inline constexpr std::uint32_t kDefaultCancelPollInterval = 4096;

/// Per-call execution controls. Default-constructed RunControl means "run to
/// completion, report nothing".
struct RunControl {
  const CancelToken* cancel{nullptr};
  /// Typed event observer (api/events.h): solver merge ticks, per-job
  /// completions, router round/shard boundaries. Borrowed; must outlive the
  /// engine call (for a SolveStream: the stream). Event delivery within one
  /// engine call is serialized, so the sink need not be thread-safe — but
  /// handlers run on engine worker threads and must not call back into the
  /// emitting session (use a CancelToken to influence the run).
  EventSink* events{nullptr};
  /// Monotonic deadline for the engine call, polled at the same points as
  /// `cancel` (solver queue pops, router batch/round boundaries, stream job
  /// starts). Expiry returns kDeadlineExceeded with the same
  /// partial-progress guarantees as cancellation: committed state stays
  /// coherent and the session remains usable. Unset means no deadline.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Queue pops between cancellation/deadline checks inside one
  /// cost-distance solve (responsiveness/overhead trade-off; 0 means the
  /// default, kDefaultCancelPollInterval).
  std::uint32_t cancel_poll_interval{kDefaultCancelPollInterval};
};

}  // namespace cdst
