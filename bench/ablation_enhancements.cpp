// Ablation of the Section III practical enhancements: solves the same
// corpus of router-generated instances with each enhancement toggled and
// reports objective quality (vs the all-on configuration) and label counts.
// Covers the design choices DESIGN.md calls out (and the paper's Fig. 1
// claim that penalty-aware construction reduces weighted bifurcation cost).

#include <array>
#include <cstdio>

#include "api/cdst.h"
#include "bench_common.h"
#include "io/table.h"
#include "route/steiner_oracle.h"
#include "util/args.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace cdst;
using namespace cdst::bench;

namespace {

struct Config {
  const char* name;
  bool discount, astar, placement, encourage_root;
  QueueKind queue{QueueKind::kTwoLevel};
};

constexpr Config kConfigs[] = {
    {"all-on", true, true, true, true},
    {"no-discount (III-A off)", false, true, true, true},
    {"no-astar (III-C off)", true, false, true, true},
    {"no-placement (III-D off)", true, true, false, true},
    {"no-root-bonus (III-E off)", true, true, true, false},
    {"single lazy heap (III-B off)", true, true, true, true,
     QueueKind::kSingleLazy},
    {"plain Algorithm 1", false, false, false, false},
};

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("ablation_enhancements",
                 "objective/effort impact of each Section III enhancement");
  args.add_option("scale", "0.004", "chip net-count scale");
  args.add_option("seed", "1", "random seed");
  args.parse(argc, argv);

  WallTimer timer;
  ChipConfig chip = paper_chip_configs(args.get_double("scale"))[1];  // c2
  const RoutingGrid grid = make_chip_grid(chip);
  const Netlist netlist = generate_netlist(chip, grid);
  const double dbif = chip_dbif(chip);

  // Warm-up for realistic prices/weights, on a shared worker pool. The
  // per-instance config sweep below stays serial so the per-config solve
  // timings are contention-free.
  ThreadPool pool(2);
  RouterOptions ropts;
  ropts.method = SteinerMethod::kCD;
  ropts.oracle.dbif = dbif;
  Router warm_session(grid, netlist, ropts, &pool);
  if (const Status st = warm_session.run(3); !st.ok()) {
    std::fprintf(stderr, "warm-up failed: %s\n", st.to_string().c_str());
    return 1;
  }
  const RouterResult warm = warm_session.result();
  CongestionCosts costs(grid, ropts.congestion);
  for (const auto& route : warm.routes) costs.add_usage(route, +1.0);

  const std::size_t nc = std::size(kConfigs);
  std::vector<StatAccumulator> excess(nc);
  std::vector<StatAccumulator> labels(nc);
  std::vector<double> solve_time(nc, 0.0);

  // One solver session per configuration: scratch recycles across the whole
  // corpus, so the per-config solve times carry no per-solve setup noise.
  std::vector<CdSolver> solvers;
  for (std::size_t c = 0; c < nc; ++c) {
    SolverOptions o;
    o.discount_components = kConfigs[c].discount;
    o.use_astar = kConfigs[c].astar;
    o.better_steiner_placement = kConfigs[c].placement;
    o.encourage_root = kConfigs[c].encourage_root;
    o.queue = kConfigs[c].queue;
    solvers.push_back(CdSolver(o));
  }

  OracleParams params = ropts.oracle;
  std::size_t flat = 0;
  for (std::size_t i = 0; i < netlist.nets.size(); ++i) {
    const Net& net = netlist.nets[i];
    const std::size_t k = net.sinks.size();
    flat += k;
    if (k < 3) continue;
    costs.add_usage(warm.routes[i], -1.0);
    const std::span<const double> weights(
        warm.sink_weights.data() + (flat - k), k);
    params.seed = 7919 + net.id;
    const OracleInstance oi(grid, costs, net, weights, params);

    std::array<double, std::size(kConfigs)> objective{};
    for (std::size_t c = 0; c < nc; ++c) {
      CdSolver::Job job;
      job.instance = &oi.instance();
      job.future_cost = &oi.future_cost();
      job.seed = params.seed;
      WallTimer st;
      const StatusOr<SolveResult> solved = solvers[c].solve(job);
      solve_time[c] += st.seconds();
      if (!solved.ok()) {
        std::fprintf(stderr, "net %u config %s failed: %s\n", net.id,
                     kConfigs[c].name, solved.status().to_string().c_str());
        return 1;
      }
      objective[c] = solved->eval.objective;
      labels[c].add(static_cast<double>(solved->stats.labels_settled));
    }
    for (std::size_t c = 0; c < nc; ++c) {
      if (objective[0] > 0.0) {
        excess[c].add(100.0 * (objective[c] / objective[0] - 1.0));
      }
    }
    costs.add_usage(warm.routes[i], +1.0);
  }

  std::printf("ablation of Section III enhancements on %llu instances "
              "(chip c2 scaled, dbif %.3f ps)\n\n",
              static_cast<unsigned long long>(excess[0].count()), dbif);
  TextTable table({"configuration", "objective vs all-on", "labels settled",
                   "total solve time"});
  for (std::size_t c = 0; c < nc; ++c) {
    table.add_row({kConfigs[c].name,
                   (excess[c].mean() >= 0 ? "+" : "") +
                       fmt_double(excess[c].mean(), 3) + "%",
                   fmt_double(labels[c].mean(), 0),
                   fmt_double(solve_time[c] * 1000.0, 0) + " ms"});
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf("\nwalltime: %s\n", format_hms(timer.seconds()).c_str());
  return 0;
}
