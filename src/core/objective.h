/// \file objective.h
/// Evaluation of the cost-distance objective (Eq. (1) with the bifurcation
/// delay model of Eq. (3)) on an embedded Steiner tree.

#pragma once

#include <vector>

#include "core/instance.h"
#include "core/steiner_tree.h"

namespace cdst {

struct TreeEvaluation {
  double connection_cost{0.0};   ///< sum of c(e) over tree edges
  double weighted_delay{0.0};    ///< sum_t w(t) * delay(r, t)
  double objective{0.0};         ///< connection_cost + weighted_delay
  double total_delay_penalty{0.0};  ///< part of weighted_delay from dbif terms
  std::vector<double> sink_delays;  ///< delay(r, t) per instance sink index
  /// Penalty share lambda assigned to the edge entering each tree node
  /// (Eq. (2)); 0 where the parent is not a bifurcation or dbif = 0.
  /// Indexed like SteinerTree::nodes.
  std::vector<double> node_lambda;
  std::size_t num_graph_edges{0};
};

/// Per-node temporaries of evaluate_tree, kept allocated between calls.
struct TreeEvalScratch {
  std::vector<double> subtree_weight;
  std::vector<double> delay_from_root;
};

/// Computes Eq. (1)+(3) for the given tree. Lambda penalty shares at each
/// bifurcation are assigned optimally per Eq. (2) from the subtree delay
/// weights (the evaluator owns this choice; solvers need not record lambdas).
TreeEvaluation evaluate_tree(const SteinerTree& tree,
                             const CostDistanceInstance& instance);

/// The same evaluation with recycled temporaries: allocates only the
/// returned evaluation's own vectors.
TreeEvaluation evaluate_tree(const SteinerTree& tree,
                             const CostDistanceInstance& instance,
                             TreeEvalScratch& scratch);

}  // namespace cdst
