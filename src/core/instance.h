/// \file instance.h
/// The cost-distance Steiner tree problem instance (paper Section I).
///
/// An instance couples a graph with two independent edge metrics — congestion
/// cost c and delay d — a root, weighted sinks, and the bifurcation penalty
/// parameters (dbif, eta). The objective is Eq. (1) with the delay model of
/// Eq. (3):
///
///   cost(T) = sum_{e in T} c(e) + sum_{t in S} w(t) * delay_T(r, t)
///   delay_T(r,t) = sum_{e=(u,v) on the r-t path} ( d(e) + lambda_v * dbif )
///
/// The graph comes in one of two forms. An explicit CSR `graph` carries c
/// and d as per-edge vectors, which the solver gathers per arc. An implicit
/// `box` serves a routing window (graph/box_graph.h) and carries its prices
/// in resource form: one price per box slot and a unit cost and delay per
/// (layer, wire type | via) class. The cost-distance solver generates each
/// settled vertex's arcs, and their c and d, from the box, so a per-net
/// instance stores nothing per edge. edge_cost()/edge_delay() read either
/// form. Consumers that scan every vertex's arcs — the topology embedder,
/// exact enumeration, instance files — require the CSR form; a routing
/// window provides it through MaterializedInstance (route/steiner_oracle.h),
/// which builds the per-edge vectors once.

#pragma once

#include <algorithm>
#include <vector>

#include "graph/box_graph.h"
#include "graph/graph.h"
#include "util/assert.h"

namespace cdst {

struct Terminal {
  VertexId vertex{kInvalidVertex};
  double weight{0.0};  ///< delay weight w(t); criticality from Lagrangean relaxation
};

struct CostDistanceInstance {
  /// Explicit CSR graph; exactly one of `graph` and `box` is set.
  const Graph* graph{nullptr};
  /// Implicit box graph of a routing window, the alternative to `graph` +
  /// `cost` + `delay`.
  const BoxGraph* box{nullptr};
  /// c and d of a box instance, by slot and class (borrowed).
  BoxPrices prices;
  const std::vector<double>* cost{nullptr};   ///< c(e) of a CSR instance
  const std::vector<double>* delay{nullptr};  ///< d(e) of a CSR instance
  VertexId root{kInvalidVertex};
  std::vector<Terminal> sinks;
  double dbif{0.0};  ///< total bifurcation delay penalty per branching
  double eta{0.5};   ///< penalty split freedom, 0 <= eta <= 1/2

  std::size_t num_vertices() const {
    return graph != nullptr ? graph->num_vertices() : box->num_vertices();
  }
  std::size_t num_edges() const {
    return graph != nullptr ? graph->num_edges() : box->num_edges();
  }
  EdgeEndpoints endpoints() const {
    return graph != nullptr ? EdgeEndpoints(*graph) : EdgeEndpoints(*box);
  }

  /// c(e), congestion cost, from either form.
  double edge_cost(EdgeId e) const {
    if (graph != nullptr) return (*cost)[e];
    const BoxEdgeSite s = box->site(e);
    return prices.cost(s.slot, s.cls);
  }
  /// d(e), linear delay, from either form.
  double edge_delay(EdgeId e) const {
    if (graph != nullptr) return (*delay)[e];
    return prices.delay[box->site(e).cls];
  }

  void validate() const {
    CDST_CHECK_MSG((graph != nullptr) != (box != nullptr),
                   "instance needs exactly one of graph and box");
    if (graph != nullptr) {
      CDST_CHECK(cost != nullptr && delay != nullptr);
      CDST_CHECK(cost->size() == num_edges());
      CDST_CHECK(delay->size() == num_edges());
    } else {
      CDST_CHECK_MSG(cost == nullptr && delay == nullptr,
                     "a box instance is priced by slot and class");
      CDST_CHECK(prices.price.size() == box->num_slots());
      CDST_CHECK(prices.unit.size() == box->num_classes());
      CDST_CHECK(prices.delay.size() == box->num_classes());
    }
    CDST_CHECK(root < num_vertices());
    CDST_CHECK_MSG(!sinks.empty(), "instance needs at least one sink");
    CDST_CHECK(eta >= 0.0 && eta <= 0.5);
    CDST_CHECK(dbif >= 0.0);
    for (const Terminal& t : sinks) {
      CDST_CHECK(t.vertex < num_vertices());
      CDST_CHECK(t.weight >= 0.0);
    }
  }
};

/// beta(w, w') — the minimum possible weighted delay penalty when merging two
/// components with delay weights w and w' (paper Section II): the heavier
/// side receives the small share eta, the lighter side (1 - eta).
inline double bifurcation_beta(double w1, double w2, double dbif, double eta) {
  return dbif * (eta * std::max(w1, w2) + (1.0 - eta) * std::min(w1, w2));
}

/// Optimal penalty share lambda_x for the branch with subtree weight wx when
/// the sibling subtree weighs wy (Eq. (2)).
inline double optimal_lambda(double wx, double wy, double eta) {
  if (wx > wy) return eta;
  if (wx < wy) return 1.0 - eta;
  return 0.5;
}

}  // namespace cdst
