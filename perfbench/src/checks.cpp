#include "checks.h"

#include <numeric>
#include <unordered_map>
#include <unordered_set>

namespace perfbench {

using namespace cdst;

std::string check_route_tree(const RoutingGrid& grid, const Net& net,
                             const std::vector<EdgeId>& edges) {
  const Graph& g = grid.graph();
  const VertexId source = grid.vertex_at(net.source);
  if (edges.empty()) {
    for (const SinkPin& s : net.sinks) {
      if (grid.vertex_at(s.pos) != source) return "empty route, sink apart";
    }
    return {};
  }
  std::unordered_map<VertexId, std::size_t> local;
  std::vector<std::size_t> parent;
  const auto index_of = [&](VertexId v) {
    const auto [it, inserted] = local.emplace(v, parent.size());
    if (inserted) parent.push_back(parent.size());
    return it->second;
  };
  const auto find = [&](std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  std::unordered_set<EdgeId> seen;
  for (const EdgeId e : edges) {
    if (e >= g.num_edges()) return "edge id out of range";
    if (!seen.insert(e).second) return "edge used twice";
    const std::size_t a = find(index_of(g.tail(e)));
    const std::size_t b = find(index_of(g.head(e)));
    if (a == b) return "cycle";
    parent[a] = b;
  }
  // A forest on V vertices with V - 1 edges is one tree.
  if (parent.size() != edges.size() + 1) return "disconnected";
  if (!local.contains(source)) return "source not on route";
  for (const SinkPin& s : net.sinks) {
    if (!local.contains(grid.vertex_at(s.pos))) return "sink not on route";
  }
  return {};
}

std::string check_all_routes(const RoutingGrid& grid, const Netlist& netlist,
                             const RouterResult& result) {
  if (result.routes.size() != netlist.nets.size()) return "route count";
  for (std::size_t i = 0; i < netlist.nets.size(); ++i) {
    if (netlist.nets[i].sinks.empty()) continue;
    std::string why = check_route_tree(grid, netlist.nets[i], result.routes[i]);
    if (!why.empty()) return "net " + std::to_string(i) + ": " + why;
  }
  return {};
}

std::string compare_routing(const RouterResult& got,
                            const RouterResult& want) {
  if (got.routes != want.routes) return "routes differ";
  if (got.sink_delays != want.sink_delays) return "sink delays differ";
  return {};
}

std::string compare_solve(const SolveResult& got, const SolveResult& want) {
  const auto& a = got.tree.nodes;
  const auto& b = want.tree.nodes;
  if (a.size() != b.size()) return "tree node count differs";
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].graph_vertex != b[i].graph_vertex || a[i].parent != b[i].parent ||
        a[i].sink_index != b[i].sink_index || a[i].kind != b[i].kind ||
        a[i].up_path != b[i].up_path) {
      return "tree node " + std::to_string(i) + " differs";
    }
  }
  if (got.eval.objective != want.eval.objective ||
      got.eval.connection_cost != want.eval.connection_cost ||
      got.eval.sink_delays != want.eval.sink_delays) {
    return "evaluation differs";
  }
  const SolveStats& s = got.stats;
  const SolveStats& t = want.stats;
  if (s.iterations != t.iterations || s.labels_settled != t.labels_settled ||
      s.labels_relaxed != t.labels_relaxed ||
      s.completions_popped != t.completions_popped ||
      s.completions_stale != t.completions_stale) {
    return "solve counters differ";
  }
  return {};
}

std::string check_objective(const SolveResult& result,
                            const CostDistanceInstance& instance) {
  const TreeEvaluation eval = evaluate_tree(result.tree, instance);
  if (eval.objective != result.eval.objective) {
    return "objective " + std::to_string(result.eval.objective) +
           " != evaluate_tree " + std::to_string(eval.objective);
  }
  return {};
}

}  // namespace perfbench
