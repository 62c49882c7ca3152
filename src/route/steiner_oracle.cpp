#include "route/steiner_oracle.h"

#include <algorithm>

#include "route/sharding.h"
#include "topology/prim_dijkstra.h"
#include "topology/rsmt.h"
#include "topology/shallow_light.h"

namespace cdst {

Rect net_window_box(const Net& net, const OracleParams& p) {
  Rect box;
  box.expand(net.source.xy());
  for (const SinkPin& s : net.sinks) box.expand(s.pos.xy());
  const auto margin = static_cast<std::int32_t>(
      p.window_margin +
      p.window_margin_frac * static_cast<double>(box.half_perimeter()));
  return box.inflated(margin);
}

OracleInstance::OracleInstance(const RoutingGrid& grid,
                               const CongestionCosts& costs, const Net& net,
                               std::span<const double> sink_weights,
                               const OracleParams& params,
                               const SparseMap<double>* excluded_usage)
    : OracleInstance() {
  rebuild(grid, costs, net, sink_weights, params, excluded_usage);
}

OracleInstance::OracleInstance() : rep_(std::make_unique<Rep>()) {}

OracleInstance::Rep::Rep() : future_cost(window) {
  instance.box = &window.box_graph();
}

void OracleInstance::rebuild(const RoutingGrid& grid,
                             const CongestionCosts& costs, const Net& net,
                             std::span<const double> sink_weights,
                             const OracleParams& params,
                             const SparseMap<double>* excluded_usage) {
  CDST_CHECK(sink_weights.size() == net.sinks.size());
  Rep& rep = *rep_;
  rep.window.rebuild(grid, costs, net_window_box(net, params),
                     excluded_usage);
  rep.instance.prices = rep.window.prices();
  rep.instance.dbif = params.dbif;
  rep.instance.eta = params.eta;
  rep.instance.root = rep.window.from_grid_vertex(grid.vertex_at(net.source));
  CDST_CHECK(rep.instance.root != kInvalidVertex);
  rep.root_xy = net.source.xy();
  rep.instance.sinks.clear();
  rep.plane_sinks.clear();
  for (std::size_t s = 0; s < net.sinks.size(); ++s) {
    const VertexId wv =
        rep.window.from_grid_vertex(grid.vertex_at(net.sinks[s].pos));
    CDST_CHECK(wv != kInvalidVertex);
    rep.instance.sinks.push_back(Terminal{wv, sink_weights[s]});
    rep.plane_sinks.push_back(PlaneTerminal{net.sinks[s].pos.xy(),
                                            sink_weights[s],
                                            net.sinks[s].rat});
  }
}

OracleInstance::~OracleInstance() = default;
OracleInstance::OracleInstance(OracleInstance&&) noexcept = default;
OracleInstance& OracleInstance::operator=(OracleInstance&&) noexcept =
    default;

double OracleInstance::delay_per_unit() const {
  return rep_->window.grid().min_unit_delay();
}

MaterializedInstance::MaterializedInstance(const OracleInstance& oi)
    : graph_(oi.window().materialize()), instance_(oi.instance()) {
  // c and d per edge from the window's slot and class prices. Edges are
  // numbered by their tail, so the arcs each vertex owns (its wires toward
  // higher x/y, then its via up) arrive in ascending edge id.
  const BoxGraph& box = oi.window().box_graph();
  const BoxPrices prices = oi.window().prices();
  cost_.reserve(box.num_edges());
  delay_.reserve(box.num_edges());
  std::vector<VertexId> heads(box.max_degree());
  std::vector<EdgeId> edges(box.max_degree());
  std::vector<std::uint32_t> slots(box.max_degree());
  std::vector<std::uint32_t> classes(box.max_degree());
  for (VertexId v = 0; v < box.num_vertices(); ++v) {
    const std::uint32_t deg = box.arcs(v, heads.data(), edges.data(),
                                       slots.data(), classes.data());
    for (std::uint32_t k = 0; k < deg; ++k) {
      if (slots[k] / 2 != v) continue;  // owned by the arc's other end
      CDST_ASSERT(edges[k] == cost_.size());
      cost_.push_back(prices.cost(slots[k], classes[k]));
      delay_.push_back(prices.delay[classes[k]]);
    }
  }
  CDST_CHECK(cost_.size() == graph_.num_edges());
  instance_.box = nullptr;
  instance_.prices = {};
  instance_.graph = &graph_;
  instance_.cost = &cost_;
  instance_.delay = &delay_;
}

OracleOutcome run_method(const OracleInstance& oi, SteinerMethod method,
                         const OracleParams& params, SolverScratch* scratch,
                         const SolveControls* controls) {
  OracleOutcome out;
  if (method == SteinerMethod::kCD) {
    SolverOptions opts = params.cd;
    opts.seed = params.seed;
    opts.future_cost = &oi.future_cost();
    SolveResult r = solve_cost_distance(oi.instance(), opts, scratch,
                                        controls);
    out.eval = std::move(r.eval);
    out.grid_edges = oi.window().to_grid_edges(r.tree.all_edges());
    return out;
  }

  // The embedded baselines poll cancellation too: once before the plane
  // topology is built, then per embedding-DP node inside embed_topology.
  if (controls != nullptr && controls->cancel != nullptr &&
      controls->cancel->load(std::memory_order_relaxed)) {
    throw SolveCancelled();
  }
  PlaneTopology topo;
  switch (method) {
    case SteinerMethod::kL1:
      topo = rsmt_topology(oi.root_xy(), oi.plane_sinks());
      break;
    case SteinerMethod::kSL: {
      ShallowLightParams sl;
      sl.delay_per_unit = oi.delay_per_unit();
      sl.dbif = params.dbif;
      sl.eta = params.eta;
      topo = shallow_light_topology(oi.root_xy(), oi.plane_sinks(), sl);
      break;
    }
    case SteinerMethod::kPD: {
      PrimDijkstraParams pd;
      pd.delay_per_unit = oi.delay_per_unit();
      pd.dbif = params.dbif;
      pd.eta = params.eta;
      topo = prim_dijkstra_topology(oi.root_xy(), oi.plane_sinks(), pd);
      break;
    }
    case SteinerMethod::kCD:
      break;  // handled above
  }
  const MaterializedInstance csr(oi);
  EmbedResult r = embed_topology(topo, csr.instance(), controls);
  out.eval = std::move(r.eval);
  out.grid_edges = oi.window().to_grid_edges(r.tree.all_edges());
  return out;
}

OracleOutcome route_round_net(OracleLane& lane, const RoutingGrid& grid,
                              const CongestionCosts& costs, const Net& net,
                              std::span<const double> weights,
                              std::span<const EdgeId> own_route,
                              SteinerMethod method, const OracleParams& params,
                              std::uint64_t options_seed, int round,
                              DenseStateBudget* budget,
                              const SolveControls* controls) {
  lane.excluded.clear();
  for (const EdgeId ge : own_route) {
    const RoutingGrid::EdgeInfo& info = grid.edge_info(ge);
    lane.excluded[info.resource] += info.width;
  }
  OracleParams p = params;
  p.seed = net_round_seed(options_seed, net.id, round);
  if (p.cd.shared_dense_budget == nullptr) p.cd.shared_dense_budget = budget;
  lane.oracle.rebuild(grid, costs, net, weights, p,
                      own_route.empty() ? nullptr : &lane.excluded);
  return run_method(lane.oracle, method, p, &lane.scratch, controls);
}

}  // namespace cdst
