#include "corpus.h"

#include <span>

#include "timing/repeater_chain.h"

namespace perfbench {

using namespace cdst;

std::unique_ptr<Chip> make_chip(int number) {
  const ChipConfig config =
      paper_chip_configs(kChipScale).at(static_cast<std::size_t>(number - 1));
  RoutingGrid grid = make_chip_grid(config);
  auto chip = std::make_unique<Chip>(Chip{config, std::move(grid), {}, 0.0});
  chip->netlist = generate_netlist(chip->config, chip->grid);
  // dbif from the repeater-chain model of the chip's layer stack (paper
  // Section I), as the Table V harness computes it.
  std::vector<LayerSpec> layers = make_default_layer_stack(config.num_layers);
  apply_linear_delay_model(layers, BufferSpec{});
  chip->dbif = compute_dbif(layers, BufferSpec{});
  return chip;
}

RouterOptions table_v_options(const Chip& chip) {
  RouterOptions opts;
  opts.method = SteinerMethod::kCD;
  opts.oracle.dbif = chip.dbif;
  opts.seed = 1;
  return opts;
}

void RoutingQuality::add(const Chip& chip, const RouterResult& result) {
  ws += result.timing.worst_slack;
  tns += result.timing.total_negative_slack;
  ace4_sum += result.congestion.ace4;
  ++chips;
  // Eq. (1) summed over nets: congestion prices of the committed usage
  // plus multiplier-weighted sink delays.
  CongestionCosts costs(chip.grid, RouterOptions{}.congestion);
  for (const auto& route : result.routes) costs.add_usage(route, +1.0);
  for (const auto& route : result.routes) {
    for (const EdgeId e : route) objective += costs.edge_cost(e);
  }
  for (std::size_t s = 0; s < result.sink_delays.size(); ++s) {
    objective += result.sink_weights[s] * result.sink_delays[s];
  }
}

int sink_bucket(std::size_t sinks) {
  if (sinks < 3) return -1;
  if (sinks <= 5) return 0;
  if (sinks <= 14) return 1;
  if (sinks <= 29) return 2;
  return 3;
}

Corpus build_corpus(const std::vector<int>& chip_numbers, int warm_rounds, ThreadPool& pool, Outcome& outcome,
                    Tracer* tracer) {
  Corpus corpus;
  for (const int number : chip_numbers) {
    corpus.chips.push_back(make_chip(number));
  }
  std::size_t total = 0;
  for (const auto& chip : corpus.chips) total += chip->netlist.nets.size();
  corpus.instances.reserve(total);

  for (const auto& chip_ptr : corpus.chips) {
    const Chip& chip = *chip_ptr;
    const RouterOptions ropts = table_v_options(chip);
    corpus.solver_options = ropts.oracle.cd;
    Router warm(chip.grid, chip.netlist, ropts, &pool);
    outcome.op("warmup_rounds", warm.run(warm_rounds),
               static_cast<std::uint64_t>(warm_rounds));
    const RouterResult state = std::move(warm).take_result();
    corpus.warm_quality.add(chip, state);

    CongestionCosts costs(chip.grid, ropts.congestion);
    for (const auto& route : state.routes) costs.add_usage(route, +1.0);
    std::size_t flat = 0;
    for (std::size_t i = 0; i < chip.netlist.nets.size(); ++i) {
      const Net& net = chip.netlist.nets[i];
      const std::size_t k = net.sinks.size();
      flat += k;
      if (k == 0) continue;
      // The instance prices edges without the net's own usage.
      const std::vector<EdgeId>& own = state.routes[i];
      costs.add_usage(own, -1.0);
      OracleParams params = ropts.oracle;
      params.seed = ropts.seed * 7919 + net.id;
      const Clock::time_point t0 = Clock::now();
      corpus.instances.emplace_back(
          chip.grid, costs, net,
          std::span<const double>(state.sink_weights.data() + flat - k, k),
          params);
      const Clock::time_point t1 = Clock::now();
      costs.add_usage(own, +1.0);
      corpus.window_build_ms.push_back(ms_between(t0, t1));
      if (tracer != nullptr) tracer->record("grid.window_build", t0, t1);
      corpus.sinks.push_back(k);
      corpus.jobs.push_back(CdSolver::Job{&corpus.instances.back().instance(),
                                          &corpus.instances.back().future_cost(),
                                          params.seed});
    }
    corpus.chip_end.push_back(corpus.instances.size());
  }
  return corpus;
}

}  // namespace perfbench
