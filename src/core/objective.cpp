#include "core/objective.h"

namespace cdst {

TreeEvaluation evaluate_tree(const SteinerTree& tree,
                             const CostDistanceInstance& instance) {
  TreeEvalScratch scratch;
  return evaluate_tree(tree, instance, scratch);
}

TreeEvaluation evaluate_tree(const SteinerTree& tree,
                             const CostDistanceInstance& instance,
                             TreeEvalScratch& scratch) {
  instance.validate();
  const std::size_t nn = tree.nodes.size();
  CDST_CHECK(nn > 0);

  TreeEvaluation eval;
  eval.sink_delays.assign(instance.sinks.size(), 0.0);
  eval.node_lambda.assign(nn, 0.0);

  // Subtree delay weights; nodes are stored in BFS order (parent < child),
  // so a reverse sweep accumulates bottom-up.
  std::vector<double>& subtree_weight = scratch.subtree_weight;
  subtree_weight.assign(nn, 0.0);
  for (std::size_t i = nn; i-- > 0;) {
    const SteinerTree::Node& n = tree.nodes[i];
    if (n.sink_index >= 0) {
      subtree_weight[i] +=
          instance.sinks[static_cast<std::size_t>(n.sink_index)].weight;
    }
    if (n.parent >= 0) {
      subtree_weight[static_cast<std::size_t>(n.parent)] += subtree_weight[i];
    }
  }

  // Top-down delay accumulation with optimal lambda at every bifurcation.
  std::vector<double>& delay_from_root = scratch.delay_from_root;
  delay_from_root.assign(nn, 0.0);
  for (std::size_t i = 1; i < nn; ++i) {
    const SteinerTree::Node& n = tree.nodes[i];
    const auto p = static_cast<std::size_t>(n.parent);
    double dl = delay_from_root[p];
    for (const EdgeId e : n.up_path) {
      dl += instance.edge_delay(e);
      eval.connection_cost += instance.edge_cost(e);
      ++eval.num_graph_edges;
    }
    if (tree.children[p].size() == 2 && instance.dbif > 0.0) {
      // Sibling subtree weight determines this branch's share (Eq. (2)).
      const std::int32_t sib = tree.children[p][0] == static_cast<std::int32_t>(i)
                                   ? tree.children[p][1]
                                   : tree.children[p][0];
      const double lambda =
          optimal_lambda(subtree_weight[i],
                         subtree_weight[static_cast<std::size_t>(sib)],
                         instance.eta);
      const double penalty = lambda * instance.dbif;
      eval.node_lambda[i] = lambda;
      dl += penalty;
      eval.total_delay_penalty += penalty * subtree_weight[i];
    }
    delay_from_root[i] = dl;
    if (n.sink_index >= 0) {
      eval.sink_delays[static_cast<std::size_t>(n.sink_index)] = dl;
    }
  }

  for (std::size_t s = 0; s < instance.sinks.size(); ++s) {
    eval.weighted_delay += instance.sinks[s].weight * eval.sink_delays[s];
  }
  eval.objective = eval.connection_cost + eval.weighted_delay;
  return eval;
}

}  // namespace cdst
