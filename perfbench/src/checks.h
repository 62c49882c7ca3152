// Output checks. Each returns an empty string when the output is correct
// and a short reason otherwise, so the self-test can feed them corrupted
// results and assert that they fire.

#pragma once

#include <string>
#include <vector>

#include "api/cdst.h"

namespace perfbench {

/// `edges` (grid edge ids) form a tree in the grid graph that spans the
/// net's source and every sink: no repeated edge, no cycle, one connected
/// component, every pin on it.
std::string check_route_tree(const cdst::RoutingGrid& grid,
                             const cdst::Net& net,
                             const std::vector<cdst::EdgeId>& edges);

/// Every net of `result` passes check_route_tree; reports the first failure.
std::string check_all_routes(const cdst::RoutingGrid& grid,
                             const cdst::Netlist& netlist,
                             const cdst::RouterResult& result);

/// Bit-identical routes and per-sink delays.
std::string compare_routing(const cdst::RouterResult& got,
                            const cdst::RouterResult& want);

/// Bit-identical solve results: tree structure, evaluation and counters.
std::string compare_solve(const cdst::SolveResult& got,
                          const cdst::SolveResult& want);

/// The reported objective equals evaluate_tree on the returned tree.
std::string check_objective(const cdst::SolveResult& result,
                            const cdst::CostDistanceInstance& instance);

}  // namespace perfbench
