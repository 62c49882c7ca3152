/// \file cost_distance.h
/// The fast cost-distance Steiner tree approximation algorithm (Algorithm 1)
/// with the practical enhancements of Section III.
///
/// The algorithm merges components Kruskal-style: every active component runs
/// a Dijkstra search under its own metric l_u(e) = c(e) + w(u) * d(e); when a
/// search permanently labels a vertex of another component, a completion
/// label keyed by dist + b(u, v) (the optimally balanced bifurcation penalty)
/// enters the queue, and the globally cheapest completion determines the pair
/// minimizing L(u, v) of Eq. (5). Merged components continue as a single
/// component whose Steiner vertex is placed randomly proportional to delay
/// weights (line 7) or by the future-cost guided rule of Section III-D.
///
/// Expected approximation factor: O(log t) (Theorem 6); running time
/// O(t (n log n + m)) (Theorem 1).

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/future_oracle.h"
#include "core/instance.h"
#include "core/objective.h"
#include "core/steiner_tree.h"
#include "util/assert.h"

namespace cdst {

/// Shared memory budget for the dense per-search vertex index arrays,
/// drawn on by every solve that runs against it. One atomic pool serves all
/// concurrent solve lanes of a session (CdSolver::solve_batch, the router's
/// per-net oracles): each solve reserves its dense-state footprint up front
/// and releases it when the solve unwinds, so N parallel lanes can never
/// commit N times the budget the way independent per-lane budgeting did.
/// A failed reservation falls back to sparse search state — slower, but
/// bit-identical results (dense/sparse state never changes any output).
class DenseStateBudget {
 public:
  explicit DenseStateBudget(std::size_t bytes)
      : initial_(static_cast<std::int64_t>(bytes)),
        remaining_(static_cast<std::int64_t>(bytes)),
        low_water_(static_cast<std::int64_t>(bytes)) {}

  // Movable so session objects holding one stay movable; only valid while
  // no reservation is in flight (sessions never move mid-batch).
  DenseStateBudget(DenseStateBudget&& other) noexcept
      : initial_(other.initial_.load(std::memory_order_relaxed)),
        remaining_(other.remaining_.load(std::memory_order_relaxed)),
        low_water_(other.low_water_.load(std::memory_order_relaxed)) {}
  DenseStateBudget& operator=(DenseStateBudget&& other) noexcept {
    initial_.store(other.initial_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    remaining_.store(other.remaining_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    low_water_.store(other.low_water_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    return *this;
  }

  /// Reserves `bytes` if the pool still holds that much; false otherwise.
  ///
  /// Memory ordering: the read-modify-writes publish with release and the
  /// loads acquire, so any thread that synchronizes with a lane (a stream
  /// delivering that lane's result, a batch joining its barrier) observes
  /// the lane's complete accounting — with fully relaxed RMWs a monitoring
  /// thread could see `remaining` drop without the low-water mark that drop
  /// implies, transiently understating peak_reserved_bytes() against the
  /// bound the backpressure tests assert. The low-water mark itself is
  /// exact, not sampled: every successful CAS knows the true remaining
  /// level at its own instant (`cur - want`), release() only raises the
  /// level, so the minimum over those post-CAS values is the true minimum.
  bool try_reserve(std::size_t bytes) {
    const auto want = static_cast<std::int64_t>(bytes);
    std::int64_t cur = remaining_.load(std::memory_order_acquire);
    while (cur >= want) {
      if (remaining_.compare_exchange_weak(cur, cur - want,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
        std::int64_t low = low_water_.load(std::memory_order_acquire);
        while (cur - want < low &&
               !low_water_.compare_exchange_weak(low, cur - want,
                                                 std::memory_order_acq_rel,
                                                 std::memory_order_acquire)) {
        }
        return true;
      }
    }
    return false;
  }

  void release(std::size_t bytes) {
    // Release so the reservation's whole accounting history is visible to
    // whoever acquires this level (see try_reserve's ordering note).
    remaining_.fetch_add(static_cast<std::int64_t>(bytes),
                         std::memory_order_acq_rel);
  }

  /// Re-initializes the pool size (and clears the high-water mark). Only
  /// valid while no reservation is in flight (the session APIs call it
  /// strictly between runs); `initial_` is atomic anyway so a monitoring
  /// thread reading peak_reserved_bytes() during a reset sees a stale value
  /// rather than a torn one.
  void reset(std::size_t bytes) {
    const auto size = static_cast<std::int64_t>(bytes);
    initial_.store(size, std::memory_order_relaxed);
    remaining_.store(size, std::memory_order_release);
    low_water_.store(size, std::memory_order_release);
  }

  std::int64_t remaining_bytes() const {
    return remaining_.load(std::memory_order_acquire);
  }

  /// Total pool size (the reset()/construction value). A footprint above
  /// this can never be reserved, no matter how long a lane waits.
  std::int64_t capacity_bytes() const {
    return initial_.load(std::memory_order_relaxed);
  }

  /// Largest number of bytes ever reserved concurrently since construction
  /// or the last reset(). The observable half of the backpressure contract:
  /// a SolveStream with window W over solves of footprint F never drives
  /// this past W * F.
  std::int64_t peak_reserved_bytes() const {
    return initial_.load(std::memory_order_relaxed) -
           low_water_.load(std::memory_order_acquire);
  }

 private:
  /// Pool size; written only at construction/reset, but atomic so
  /// monitoring reads never race a reset.
  std::atomic<std::int64_t> initial_;
  std::atomic<std::int64_t> remaining_;
  std::atomic<std::int64_t> low_water_;  ///< min remaining ever observed
};

/// try_reserve with bounded exponential backoff: on contention the caller
/// sleeps 50us, 100us, ... (up to `attempts` sleeps) and retries, because a
/// briefly-drained pool usually refills within one solve — a dense retry
/// beats an immediate sparse fallback. A footprint larger than the whole
/// pool fails at once (no sleeping: waiting cannot help). True when the
/// bytes are reserved; release() them when done.
bool reserve_with_backoff(DenseStateBudget& budget, std::size_t bytes,
                          int attempts);

/// Priority-queue organization for the simultaneous searches.
enum class QueueKind : std::uint8_t {
  /// Section III-B: one binary heap per active search plus a top-level heap
  /// over the per-search minima (the paper's structure; default).
  kTwoLevel,
  /// A single global binary heap with lazy deletion; the classic baseline
  /// the two-level structure is measured against (see the ablation bench).
  kSingleLazy,
};

struct SolverOptions {
  /// III-A: travel own-component tree edges at zero connection cost.
  bool discount_components{true};
  /// III-C: goal-oriented (A*) search with admissible future costs.
  /// Requires `future_cost`; silently disabled otherwise.
  bool use_astar{true};
  /// III-D: place the new Steiner vertex on the connection path at the
  /// future-cost-optimal point instead of a random terminal position.
  /// Requires `future_cost`; falls back to the random rule otherwise.
  bool better_steiner_placement{true};
  /// III-E: discount root-connection penalties by eta * dbif * w(u).
  bool encourage_root{true};
  /// Memory budget for the dense per-search vertex index arrays (t+1 live
  /// searches x n vertices). Above it, searches fall back to sparse hash
  /// indexes with O(touched-labels) memory — slower per lookup and without
  /// the future-bound memo, but identical results (the windowed router
  /// oracles always fit; huge standalone instances may not).
  std::size_t dense_state_budget_bytes{512u << 20};
  /// When set, dense-state memory is reserved from this shared atomic pool
  /// instead of each solve budgeting independently against
  /// dense_state_budget_bytes — the session APIs point every concurrent
  /// batch lane at one pool sized from that member. The reservation is
  /// released when the solve finishes (or unwinds). Borrowed; must outlive
  /// the solve. Whether a solve lands dense or sparse never changes its
  /// result, so racing lanes stay deterministic.
  DenseStateBudget* shared_dense_budget{nullptr};

  /// III-B: heap organization of the label queues.
  QueueKind queue{QueueKind::kTwoLevel};

  /// Geometry-aware lower bounds; also provides plane positions for A*
  /// targets. May be nullptr for generic graphs. With use_astar or
  /// better_steiner_placement on, its plane_bounds() must be valid: the
  /// solve fails its precondition (kInvalidArgument at the api boundary)
  /// otherwise.
  const FutureCostOracle* future_cost{nullptr};

  std::uint64_t seed{1};
};

struct SolveStats {
  std::size_t iterations{0};        ///< number of merges performed
  std::size_t labels_settled{0};    ///< permanent Dijkstra labels
  std::size_t labels_relaxed{0};    ///< label improvements pushed
  std::size_t completions_popped{0};
  std::size_t completions_stale{0};
};

struct SolveResult {
  SteinerTree tree;
  TreeEvaluation eval;
  SolveStats stats;
};

/// Recyclable solver workspace: everything one solve builds besides its
/// result — the search-state pool (label arenas + dense vertex index
/// arrays), the two-level label queue, the nearest-terminal index of the A*
/// bounds, ownership maps, component tables, path scratch, the tree
/// assembler and the working storage of tree validation and evaluation —
/// kept allocated between solves. A session (`CdSolver`) holds one
/// SolverScratch per concurrent solve lane.
///
/// Contract: a warm solve allocates only its result. Once a scratch has
/// served solves at least as large, a solve against it makes no heap
/// allocation besides the vectors its SolveResult owns (tree nodes, their
/// up-paths and children lists, sink delays, node lambdas); tests/
/// alloc_test.cpp counts this. Resetting costs what the previous solve
/// touched, including a cancelled or failed solve's leftovers.
///
/// Scratch contents never influence results: a solve against a recycled
/// scratch is bit-identical to one against a fresh scratch (asserted by the
/// pooled-state determinism tests). Not thread-safe — one scratch serves one
/// solve at a time.
class SolverScratch {
 public:
  SolverScratch();
  ~SolverScratch();
  SolverScratch(SolverScratch&&) noexcept;
  SolverScratch& operator=(SolverScratch&&) noexcept;

  struct Impl;  ///< defined in cost_distance.cpp
  Impl& impl() { return *impl_; }

 private:
  std::unique_ptr<Impl> impl_;
};

/// Thrown by the solver when SolveControls::cancel is observed mid-solve.
/// Internal control flow: the session API (api/cdst.h) converts it into a
/// structured `Status` with code kCancelled before it reaches callers.
class SolveCancelled : public std::runtime_error {
 public:
  SolveCancelled() : std::runtime_error("cost-distance solve cancelled") {}
};

/// Thrown when SolveControls::deadline expires mid-solve. Internal control
/// flow, converted to a kDeadlineExceeded Status at the api boundary —
/// committed state stays coherent, exactly like cancellation.
class SolveDeadlineExceeded : public std::runtime_error {
 public:
  SolveDeadlineExceeded()
      : std::runtime_error("cost-distance solve deadline exceeded") {}
};

/// One component-merge observation of a running solve — the solver-side
/// event the session layer forwards as EventSink::on_solve_merge. Emitted on
/// the solving thread after every merge; merges_total equals the instance's
/// sink count, so merges_done == merges_total marks the finished tree.
struct MergeTick {
  std::size_t merges_done{0};
  std::size_t merges_total{0};
  std::size_t labels_settled{0};      ///< permanent labels so far
  std::size_t completions_popped{0};  ///< completion labels popped so far
};

/// Cooperative execution controls for a long-running solve. All members are
/// optional; a null/empty member disables the corresponding hook.
struct SolveControls {
  /// Checked every `cancel_poll_interval` queue pops (and once up front);
  /// when set, the solve unwinds by throwing SolveCancelled.
  const std::atomic<bool>* cancel{nullptr};
  /// Monotonic deadline, polled at the same cadence as `cancel`; expiry
  /// unwinds the solve by throwing SolveDeadlineExceeded.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Invoked after every component merge. Called on the solving thread.
  std::function<void(const MergeTick&)> on_merge;
  std::uint32_t cancel_poll_interval{4096};
};

/// True iff `controls` carries a deadline that has passed. Null controls or
/// an unset deadline never expire.
inline bool deadline_expired(const SolveControls* controls) {
  return controls != nullptr && controls->deadline.has_value() &&
         std::chrono::steady_clock::now() >= *controls->deadline;
}

/// The one origin of the deadline unwind: throws SolveDeadlineExceeded iff
/// the deadline passed. Gives api-layer code a throw-free spelling of the
/// check (the Status discipline bans literal `throw` under src/api/).
inline void throw_if_deadline_expired(const SolveControls* controls) {
  if (deadline_expired(controls)) throw SolveDeadlineExceeded();
}

/// Runs Algorithm 1 on the instance. Deterministic given options.seed,
/// independent of the (optional) scratch's history. Pass a SolverScratch to
/// recycle allocations across solves and a SolveControls for progress /
/// cancellation; either may be null.
SolveResult solve_cost_distance(const CostDistanceInstance& instance,
                                const SolverOptions& options,
                                SolverScratch* scratch,
                                const SolveControls* controls = nullptr);

}  // namespace cdst
