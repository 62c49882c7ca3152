#include "route/metrics.h"

#include <algorithm>

namespace cdst {

CongestionReport compute_ace(const CongestionCosts& costs) {
  // Utilizations of wire resources only: the grid numbers them before any
  // via resource.
  const std::size_t num_wire = costs.grid().num_wire_resources();
  std::vector<double> utils;
  utils.reserve(num_wire);
  CongestionReport rep;
  for (ResourceId r = 0; r < num_wire; ++r) {
    const double u = costs.utilization(r) * 100.0;
    utils.push_back(u);
    rep.max_utilization = std::max(rep.max_utilization, u);
    if (u > 100.0) ++rep.overfull_edges;
  }
  CDST_CHECK(!utils.empty());
  std::sort(utils.begin(), utils.end(), std::greater<>());

  const std::array<double, 4> percents{0.5, 1.0, 2.0, 5.0};
  for (std::size_t i = 0; i < percents.size(); ++i) {
    const std::size_t k = std::max<std::size_t>(
        1, static_cast<std::size_t>(percents[i] / 100.0 *
                                    static_cast<double>(utils.size())));
    double sum = 0.0;
    for (std::size_t j = 0; j < k; ++j) sum += utils[j];
    rep.ace[i] = sum / static_cast<double>(k);
    rep.ace4 += rep.ace[i] / 4.0;
  }
  return rep;
}

WireStats compute_wire_stats(const RoutingGrid& grid,
                             const std::vector<std::vector<EdgeId>>& routes) {
  WireStats s;
  for (const auto& edges : routes) {
    for (const EdgeId e : edges) {
      if (grid.edge_info(e).is_via) {
        ++s.num_vias;
      } else {
        s.wirelength_gcells += 1.0;
      }
    }
  }
  return s;
}

}  // namespace cdst
