/// \file steiner_oracle.h
/// Per-net Steiner oracles: prices one net's cost-distance instance on a
/// routing window and solves it with any of the four Section IV-A methods.
/// Shared by the global router (Tables IV/V) and the apples-to-apples
/// instance benchmarks (Tables I/II). The instance lives on the window's
/// implicit box graph; only the embedded L1/SL/PD baselines, which run a
/// full-window Dijkstra per topology node, materialize a CSR
/// (MaterializedInstance).

#pragma once

#include <memory>
#include <span>

#include "core/cost_distance.h"
#include "embed/embedder.h"
#include "grid/window.h"
#include "route/net.h"
#include "topology/topology.h"

namespace cdst {

struct OracleParams {
  double dbif{0.0};
  double eta{0.25};
  /// Window inflation beyond the net bounding box, in gcells plus a fraction
  /// of the half-perimeter.
  std::int32_t window_margin{6};
  double window_margin_frac{0.15};
  std::uint64_t seed{1};
  SolverOptions cd;  ///< cost-distance solver knobs (future_cost set per net)
};

/// The routing window of `net` before clipping to the grid: its bounding
/// box inflated by the params' margin. OracleInstance builds its window over
/// this box; the batched router sizes each net's work estimate from it.
Rect net_window_box(const Net& net, const OracleParams& p);

/// One net's Steiner problem on a routing window, priced at construction
/// (or rebuild()) and never again: the instance's prices are a snapshot,
/// so later usage changes do not reach a built instance. Its
/// CostDistanceInstance is a box instance (instance.h). Self-contained: owns
/// the window and all vectors the embedded CostDistanceInstance points into. Movable (batch APIs store
/// oracles in vectors): everything self-referential lives behind a single
/// owning pointer, so a move never relocates what instance()/future_cost()
/// point into. Not copyable. Recyclable: rebuild() re-materializes the
/// instance for another net inside the buffers it already owns, which is
/// how router lanes route net after net without fresh allocation.
class OracleInstance {
 public:
  /// `sink_weights` is a borrowed view (one weight per net sink); it is read
  /// only during construction, so routers can pass views into their flat
  /// per-sink arrays instead of materializing a per-net copy.
  /// `excluded_usage` (optional, borrowed for construction only) is the
  /// net's own committed usage per resource, priced out of the window — the
  /// sharded router's rip-up (see grid/window.h).
  OracleInstance(const RoutingGrid& grid, const CongestionCosts& costs,
                 const Net& net, std::span<const double> sink_weights,
                 const OracleParams& params,
                 const SparseMap<double>* excluded_usage = nullptr);
  /// An empty instance that holds no net until rebuild() fills it.
  OracleInstance();
  ~OracleInstance();

  OracleInstance(OracleInstance&&) noexcept;
  OracleInstance& operator=(OracleInstance&&) noexcept;
  OracleInstance(const OracleInstance&) = delete;
  OracleInstance& operator=(const OracleInstance&) = delete;

  /// Replaces this instance with the one the constructor would build for
  /// the same arguments, reusing the window's buffers (they keep their
  /// capacity) and the instance's sink vectors. Everything the previous
  /// net's instance()/window() exposed is invalidated. If it throws, the
  /// instance is unusable until a later rebuild() succeeds. Not for a
  /// moved-from instance.
  void rebuild(const RoutingGrid& grid, const CongestionCosts& costs,
               const Net& net, std::span<const double> sink_weights,
               const OracleParams& params,
               const SparseMap<double>* excluded_usage = nullptr);

  const CostDistanceInstance& instance() const { return rep_->instance; }
  const RoutingWindow& window() const { return rep_->window; }
  const WindowFutureCost& future_cost() const { return rep_->future_cost; }
  const std::vector<PlaneTerminal>& plane_sinks() const {
    return rep_->plane_sinks;
  }
  Point2 root_xy() const { return rep_->root_xy; }
  /// Fastest linear delay per gcell, for plane delay estimates in SL/PD.
  double delay_per_unit() const;

 private:
  struct Rep {
    Rep();  ///< points instance and future_cost at window, once
    RoutingWindow window;
    WindowFutureCost future_cost;
    CostDistanceInstance instance;
    std::vector<PlaneTerminal> plane_sinks;
    Point2 root_xy;
  };
  std::unique_ptr<Rep> rep_;
};

/// An oracle instance over an explicit CSR: the window materialized once
/// (RoutingWindow::materialize), its per-edge c and d vectors built once
/// from the window's slot and class prices, and the instance's root, sinks
/// and penalties. Edge ids are the window's, so trees
/// map back through the window. For consumers that scan every vertex's
/// arcs: the embedded L1/SL/PD baselines, exact enumeration (solve_exact)
/// and instance files (write_instance). Borrows `oi`, which must outlive it
/// and stay unrebuilt; not copyable or movable.
class MaterializedInstance {
 public:
  explicit MaterializedInstance(const OracleInstance& oi);
  MaterializedInstance(const MaterializedInstance&) = delete;
  MaterializedInstance& operator=(const MaterializedInstance&) = delete;

  const CostDistanceInstance& instance() const { return instance_; }

 private:
  Graph graph_;
  std::vector<double> cost_;
  std::vector<double> delay_;
  CostDistanceInstance instance_;
};

struct OracleOutcome {
  TreeEvaluation eval;
  std::vector<EdgeId> grid_edges;  ///< tree edges in full-grid ids
};

/// Solves the materialized instance with the chosen method. `scratch`
/// recycles cost-distance solver state across calls and `controls` wires in
/// cancellation; both may be null (one-shot behavior). Every method honors
/// `controls` — CD polls inside the solve, the embedded L1/SL/PD baselines
/// poll before topology construction and at each embedding-DP node. Results
/// do not depend on the scratch's history.
OracleOutcome run_method(const OracleInstance& oi, SteinerMethod method,
                         const OracleParams& params,
                         SolverScratch* scratch = nullptr,
                         const SolveControls* controls = nullptr);

/// One router lane's recycled per-net working state: the solver scratch,
/// the oracle instance each net is rebuilt into and the own-usage map, so
/// routing a net allocates only when its window is the largest the lane has
/// met. Its contents never influence results.
struct OracleLane {
  SolverScratch scratch;
  OracleInstance oracle;
  SparseMap<double> excluded;
};

/// Routes one net of Lagrangean round `round` on `lane`: the per-net step
/// every executor shares (the Router session's batched and sharded rounds,
/// and the shard executor of dist/). It prices the net's window from
/// `costs` minus the usage of `own_route`, the net's committed route (empty
/// means no exclusion), seeds the oracle with net_round_seed(options_seed,
/// net.id, round) (route/sharding.h), hands `budget` to the solver unless
/// `params` carries a pool already, and runs `method`. `weights` holds one
/// multiplier per sink. The result depends only on these arguments, never
/// on the lane's history.
OracleOutcome route_round_net(OracleLane& lane, const RoutingGrid& grid,
                              const CongestionCosts& costs, const Net& net,
                              std::span<const double> weights,
                              std::span<const EdgeId> own_route,
                              SteinerMethod method, const OracleParams& params,
                              std::uint64_t options_seed, int round,
                              DenseStateBudget* budget,
                              const SolveControls* controls);

}  // namespace cdst
