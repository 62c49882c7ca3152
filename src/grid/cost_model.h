/// \file cost_model.h
/// Congestion pricing of routing-grid edges.
///
/// "an edge cost c(e) arises from the current edge usage" (paper Section I).
/// We use the resource-sharing style exponential price of [13]: the price of
/// a resource grows exponentially in its utilization, so the Lagrangean
/// router trades congested regions against detours and the cost-distance
/// oracle sees c(e) that is *uncorrelated* with d(e) — the defining feature
/// of the problem.

#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "graph/graph.h"
#include "grid/routing_grid.h"

namespace cdst {

struct CongestionParams {
  /// Exponential base: price multiplier at 100% utilization. The exponent
  /// grows linearly in utilization with no cap, so overfull edges become
  /// rapidly prohibitive.
  double price_at_full{16.0};
};

/// Tracks per-resource usage and prices edges.
class CongestionCosts {
 public:
  CongestionCosts(const RoutingGrid& grid, CongestionParams params = {});

  const RoutingGrid& grid() const { return *grid_; }

  /// Current congestion price for routing one more wire over edge e:
  ///   c(e) = unit_cost(e) * price_at_full ^ (utilization(resource(e)))
  /// (>= unit_cost(e), equality at zero usage). A gather from the
  /// per-resource price table: the exp() ran when the usage last changed.
  double edge_cost(EdgeId e) const {
    const RoutingGrid::EdgeInfo& info = grid_->edge_info(e);
    return info.unit_cost * price_[info.resource];
  }

  /// The per-resource factor of edge_cost: edge_cost(e) is exactly
  /// edge_info(e).unit_cost * price(edge_info(e).resource). For callers
  /// that price resources rather than edges (a routing window snapshots one
  /// price per resource and a unit cost per wire type).
  double price(ResourceId r) const { return price_[r]; }

  /// price(r) with `excluded_usage` capacity units of r's usage discounted
  /// (floored at zero). The sharded router prices each net against the
  /// round's frozen usage *minus the net's own committed usage* — the
  /// frozen-round equivalent of ripping the net up first.
  double price_excluding(ResourceId r, double excluded_usage) const {
    const double use = std::max(0.0, usage_[r] - excluded_usage);
    const double util = use / capacity_[r];
    return std::exp(log_base_ * util);
  }

  /// edge_cost(e) with `excluded_usage` discounted from its resource:
  /// exactly edge_info(e).unit_cost * price_excluding(resource, ...).
  double edge_cost_excluding(EdgeId e, double excluded_usage) const {
    const RoutingGrid::EdgeInfo& info = grid_->edge_info(e);
    return info.unit_cost * price_excluding(info.resource, excluded_usage);
  }

  /// Snapshot of edge costs for all edges (the c vector handed to solvers).
  std::vector<double> edge_cost_vector() const;

  /// Commits (sign=+1) or rips up (sign=-1) the usage of a set of edges.
  void add_usage(const std::vector<EdgeId>& edges, double sign);

  /// Overwrites one resource's usage (floored at zero). The distributed
  /// shard executor (dist/shard_executor.h) loads a round's usages() into
  /// its context's instance with this: the price comes out of the same
  /// refresh on the same double, so edge_cost and edge_cost_excluding are
  /// bit-identical off-process.
  void set_usage(ResourceId r, double usage) {
    usage_[r] = std::max(0.0, usage);
    refresh_price(r);
  }

  double usage(ResourceId r) const { return usage_[r]; }
  /// Every resource's usage, ResourceId indexed: the state a sharded
  /// round's PriceSnapshotMsg ships (dist/wire.h).
  const std::vector<double>& usages() const { return usage_; }
  double utilization(ResourceId r) const { return usage_[r] / capacity_[r]; }
  std::size_t num_resources() const { return usage_.size(); }

  void reset();

 private:
  /// Re-derives price_[r] from usage_[r] with the same double operations
  /// edge_cost_excluding uses, so a gathered price is bit-identical to the
  /// closed form. Every usage mutator calls it for the resources it touches.
  void refresh_price(ResourceId r) {
    const double util = usage_[r] / capacity_[r];
    price_[r] = std::exp(log_base_ * util);
  }

  const RoutingGrid* grid_;
  double log_base_;
  std::vector<double> usage_;
  std::vector<double> capacity_;
  std::vector<double> price_;  ///< price_at_full ^ utilization, per resource
};

}  // namespace cdst
