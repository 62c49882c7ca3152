#include "grid/cost_model.h"

#include <algorithm>

namespace cdst {

CongestionCosts::CongestionCosts(const RoutingGrid& grid,
                                 CongestionParams params)
    : grid_(&grid),
      log_base_(std::log(params.price_at_full)) {
  CDST_CHECK(params.price_at_full > 1.0);
  usage_.assign(grid.num_resources(), 0.0);
  capacity_.resize(grid.num_resources());
  for (ResourceId r = 0; r < capacity_.size(); ++r) {
    capacity_[r] = std::max(1e-9, grid.resource_capacity(r));
  }
  price_.resize(grid.num_resources());
  for (ResourceId r = 0; r < price_.size(); ++r) refresh_price(r);
}

std::vector<double> CongestionCosts::edge_cost_vector() const {
  const std::size_t m = grid_->graph().num_edges();
  std::vector<double> c(m);
  for (EdgeId e = 0; e < m; ++e) c[e] = edge_cost(e);
  return c;
}

void CongestionCosts::add_usage(const std::vector<EdgeId>& edges,
                                double sign) {
  for (const EdgeId e : edges) {
    const RoutingGrid::EdgeInfo& info = grid_->edge_info(e);
    usage_[info.resource] =
        std::max(0.0, usage_[info.resource] + sign * info.width);
    refresh_price(info.resource);
  }
}

void CongestionCosts::reset() {
  std::fill(usage_.begin(), usage_.end(), 0.0);
  for (ResourceId r = 0; r < price_.size(); ++r) refresh_price(r);
}

}  // namespace cdst
