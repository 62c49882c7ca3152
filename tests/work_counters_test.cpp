// Pinned solver work counters: a fixed small slice of the router's oracle
// work, with its deterministic counters asserted exactly. Wall time on a
// shared host swings by 15-25% between runs; labels settled and relaxed do
// not swing at all, so a change that moves them (on purpose or not) shows
// here first. A change that moves a counter on purpose updates the
// expectation below and says why in CHANGES.md.
//
// The slice: paper chip c4 at scale 0.001 with its repeater-chain dbif,
// 2 warm batched CD rounds, then every net's OracleInstance solved against
// the warm prices twice — once with the net's route ripped up (the batched
// rule) and once with its own usage priced out of the window (the sharded
// rule, CongestionCosts::price_excluding). Every cdst target compiles with
// floating-point contraction off, so the values hold on FMA builds too.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <span>
#include <vector>

#include "api/cdst.h"
#include "grid/cost_model.h"
#include "route/netlist_gen.h"
#include "route/steiner_oracle.h"
#include "timing/repeater_chain.h"

namespace cdst {
namespace {

struct WorkCounters {
  std::uint64_t solves{0};
  std::uint64_t labels_settled{0};
  std::uint64_t labels_relaxed{0};
  std::uint64_t completions_popped{0};
  std::uint64_t completions_stale{0};
  double objective_sum{0.0};

  void add(const SolveResult& r) {
    ++solves;
    labels_settled += r.stats.labels_settled;
    labels_relaxed += r.stats.labels_relaxed;
    completions_popped += r.stats.completions_popped;
    completions_stale += r.stats.completions_stale;
    objective_sum += r.eval.objective;
  }
};

struct Slice {
  WorkCounters ripped_up;  ///< own route removed from the usage
  WorkCounters excluded;   ///< own usage priced out of the window
};

Slice run_slice() {
  const ChipConfig config = paper_chip_configs(0.001).at(3);
  const RoutingGrid grid = make_chip_grid(config);
  const Netlist netlist = generate_netlist(config, grid);
  std::vector<LayerSpec> layers = make_default_layer_stack(config.num_layers);
  apply_linear_delay_model(layers, BufferSpec{});

  RouterOptions ropts;
  ropts.method = SteinerMethod::kCD;
  ropts.oracle.dbif = compute_dbif(layers, BufferSpec{});
  ropts.seed = 1;
  Router warm(grid, netlist, ropts);
  const Status st = warm.run(2);
  EXPECT_TRUE(st.ok()) << st.to_string();
  const RouterResult state = std::move(warm).take_result();

  CongestionCosts costs(grid, ropts.congestion);
  for (const auto& route : state.routes) costs.add_usage(route, +1.0);

  Slice out;
  SolverScratch scratch;
  SparseMap<double> own_usage;
  std::size_t flat = 0;
  for (std::size_t i = 0; i < netlist.nets.size(); ++i) {
    const Net& net = netlist.nets[i];
    const std::size_t k = net.sinks.size();
    flat += k;
    if (k == 0) continue;
    const std::span<const double> weights(
        state.sink_weights.data() + flat - k, k);
    OracleParams params = ropts.oracle;
    params.seed = ropts.seed * 7919 + net.id;
    const auto solve = [&](const OracleInstance& oi) {
      SolverOptions opts = params.cd;
      opts.seed = params.seed;
      opts.future_cost = &oi.future_cost();
      return solve_cost_distance(oi.instance(), opts, &scratch);
    };

    const std::vector<EdgeId>& own = state.routes[i];
    own_usage.clear();
    for (const EdgeId e : own) {
      const RoutingGrid::EdgeInfo& info = grid.edge_info(e);
      own_usage[info.resource] += info.width;
    }
    out.excluded.add(solve(OracleInstance(grid, costs, net, weights, params,
                                          own.empty() ? nullptr : &own_usage)));

    costs.add_usage(own, -1.0);
    out.ripped_up.add(solve(OracleInstance(grid, costs, net, weights, params)));
    costs.add_usage(own, +1.0);
  }
  return out;
}

void print(const char* name, const WorkCounters& c) {
  std::printf("%s: solves %llu settled %llu relaxed %llu popped %llu "
              "stale %llu objective %.17g bits 0x%016llx\n",
              name, static_cast<unsigned long long>(c.solves),
              static_cast<unsigned long long>(c.labels_settled),
              static_cast<unsigned long long>(c.labels_relaxed),
              static_cast<unsigned long long>(c.completions_popped),
              static_cast<unsigned long long>(c.completions_stale),
              c.objective_sum,
              static_cast<unsigned long long>(
                  std::bit_cast<std::uint64_t>(c.objective_sum)));
}

void expect_pinned(const WorkCounters& c) {
  EXPECT_EQ(c.solves, 305u);
  EXPECT_EQ(c.labels_settled, 155550u);
  EXPECT_EQ(c.labels_relaxed, 266794u);
  EXPECT_EQ(c.completions_popped, 1510u);
  EXPECT_EQ(c.completions_stale, 221u);
  // 21135.773530978073
  EXPECT_EQ(std::bit_cast<std::uint64_t>(c.objective_sum),
            0x40d4a3f181881351ull);
}

TEST(WorkCounters, PinnedOnFixedSlice) {
  const Slice s = run_slice();
  print("ripped_up", s.ripped_up);
  print("excluded", s.excluded);
  // Both rules price every resource alike here: capacity units are whole
  // numbers, so usage minus the net's own is exact either way.
  EXPECT_EQ(s.excluded.labels_settled, s.ripped_up.labels_settled);
  EXPECT_EQ(s.excluded.labels_relaxed, s.ripped_up.labels_relaxed);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(s.excluded.objective_sum),
            std::bit_cast<std::uint64_t>(s.ripped_up.objective_sum));
  expect_pinned(s.ripped_up);
  expect_pinned(s.excluded);
}

}  // namespace
}  // namespace cdst
