// Compares the four Steiner oracles of paper Section IV-A — L1, SL, PD
// (each embedded optimally) and CD — on a single congested net, against the
// exact optimum from exhaustive topology enumeration.
//
//   ./examples/topology_comparison [--sinks N] [--seed S] [--dbif D]

#include <cstdio>

#include "api/cdst.h"
#include "embed/enumerate.h"
#include "io/table.h"
#include "route/netlist_gen.h"
#include "route/steiner_oracle.h"
#include "util/args.h"
#include "util/rng.h"

using namespace cdst;

int main(int argc, char** argv) {
  ArgParser args("topology_comparison",
                 "four Steiner oracles vs the exact optimum on one net");
  args.add_option("sinks", "4", "number of sinks (<= 5 enables the oracle)");
  args.add_option("seed", "3", "random seed");
  args.add_option("dbif", "2.5", "bifurcation delay penalty (ps)");
  args.parse(argc, argv);

  ChipConfig chip;
  chip.name = "demo";
  chip.nx = chip.ny = 28;
  chip.num_layers = 6;
  chip.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const RoutingGrid grid = make_chip_grid(chip);

  // Random pins + uneven criticality weights.
  Rng rng(chip.seed);
  Net net;
  net.source = Point3{static_cast<std::int32_t>(rng.uniform(28)),
                      static_cast<std::int32_t>(rng.uniform(28)), 0};
  const auto k = static_cast<std::size_t>(args.get_int("sinks"));
  std::vector<double> weights;
  for (std::size_t s = 0; s < k; ++s) {
    net.sinks.push_back(
        SinkPin{Point3{static_cast<std::int32_t>(rng.uniform(28)),
                       static_cast<std::int32_t>(rng.uniform(28)), 0},
                /*rat=*/500.0});
    weights.push_back(std::exp(rng.uniform_double(-2.0, 2.0)));
  }

  // Pre-congest a vertical band so c and d are genuinely uncorrelated.
  CongestionCosts costs(grid);
  std::vector<EdgeId> hot;
  for (EdgeId e = 0; e < grid.graph().num_edges(); ++e) {
    const Point3 p = grid.position(grid.graph().tail(e));
    if (p.x >= 12 && p.x <= 16) hot.push_back(e);
  }
  for (int i = 0; i < 3; ++i) costs.add_usage(hot, +1.0);

  OracleParams params;
  params.dbif = args.get_double("dbif");
  params.eta = 0.25;
  const OracleInstance oi(grid, costs, net, weights, params);

  TextTable table({"method", "objective", "conn cost", "wgt delay",
                   "edges", "vs best"});
  struct Row {
    const char* name;
    TreeEvaluation eval;
  };
  std::vector<Row> rows;
  SolverScratch scratch;  // recycled across the per-method oracle calls
  for (const SteinerMethod m : all_methods()) {
    rows.push_back(Row{method_name(m), run_method(oi, m, params,
                                                  &scratch).eval});
  }
  if (k <= 5) {
    const ExactResult exact = solve_exact(MaterializedInstance(oi).instance());
    rows.push_back(Row{"OPT", exact.eval});
  }
  double best = rows[0].eval.objective;
  for (const Row& r : rows) best = std::min(best, r.eval.objective);
  for (const Row& r : rows) {
    table.add_row({r.name, fmt_double(r.eval.objective, 3),
                   fmt_double(r.eval.connection_cost, 3),
                   fmt_double(r.eval.weighted_delay, 3),
                   std::to_string(r.eval.num_graph_edges),
                   "+" + fmt_double(100.0 * (r.eval.objective / best - 1.0),
                                    2) +
                       "%"});
  }
  std::printf("net with %zu sinks, dbif = %.2f ps, congested band at x=12..16\n\n",
              k, params.dbif);
  std::fputs(table.to_string().c_str(), stdout);
  return 0;
}
