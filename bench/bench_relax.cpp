// Microbenchmarks for the blocked relax strips, the router's round
// executor and the per-net window rebuild. The strip rows time the Vec4d
// kernels (AVX2 under the bench preset's -march, the bit-identical scalar
// twin under CDST_FORCE_SCALAR) against the per-edge scalar paths: Dijkstra
// on one graph with and without its arc plane, the solver on a routing
// window's box instance and its materialized CSR. Every pair produces
// bit-identical results, so the deltas are relax-loop cost (for the solver
// pair, plus generating each box vertex's arcs). The sharded-round
// row times the executor (heaviest-first shard spans on the pool) on an
// imbalanced round. The window row times the rebuild in front of every
// per-net solve.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/cdst.h"
#include "graph/arc_cost_view.h"
#include "graph/dijkstra.h"
#include "grid/routing_grid.h"
#include "grid/window.h"
#include "route/netlist_gen.h"
#include "route/steiner_oracle.h"
#include "util/rng.h"
#include "util/simd.h"

namespace {

using namespace cdst;

// ---------------------------------------------------------------------------
// Dijkstra strip kernel: blocked Vec4d relaxation vs the per-edge loop, on
// the grid graph the router actually searches, with the length functor
// landmark preprocessing uses (ArrayLength, over a priced length plane).

struct DijkstraFixture {
  std::unique_ptr<RoutingGrid> grid;
  std::vector<double> length;
  ArcCostView plane;
};

const DijkstraFixture& dijkstra_fixture() {
  static const DijkstraFixture* f = [] {
    auto* out = new DijkstraFixture;
    out->grid = std::make_unique<RoutingGrid>(
        96, 96, make_default_layer_stack(4), ViaSpec{});
    Rng rng(13);
    out->length.resize(out->grid->graph().num_edges());
    for (std::size_t e = 0; e < out->length.size(); ++e) {
      out->length[e] =
          out->grid->base_costs()[e] * (1.0 + 3.0 * rng.uniform_double());
    }
    out->plane.assign(out->grid->graph(), out->length);
    return out;
  }();
  return *f;
}

/// arg 0: per-edge scalar relaxation; arg 1: the blocked Vec4d strips.
void BM_Relax_DijkstraArrayLength(benchmark::State& state) {
  const bool strips = state.range(0) != 0;
  const DijkstraFixture& f = dijkstra_fixture();
  const VertexId source = f.grid->vertex_at(3, 5, 0);
  for (auto _ : state) {
    const DijkstraResult r =
        strips ? dijkstra(f.grid->graph(), {source}, ArrayLength(f.plane),
                          kInvalidVertex)
               : dijkstra(f.grid->graph(), {source}, ArrayLength{f.length},
                          kInvalidVertex);
    benchmark::DoNotOptimize(r.dist.data());
  }
  state.SetLabel(strips ? Vec4d::isa() : "per_edge");
}
BENCHMARK(BM_Relax_DijkstraArrayLength)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Solver relax paths: one routing window's box instance, which the solver
// relaxes through the Vec4d strip kernel with the batched inline future
// bound, vs its MaterializedInstance, a CSR relaxed per edge.

struct SolveFixture {
  std::unique_ptr<RoutingGrid> grid;
  std::unique_ptr<CongestionCosts> costs;
  std::unique_ptr<OracleInstance> oi;
  std::unique_ptr<MaterializedInstance> csr;
};

const SolveFixture& solve_fixture() {
  static const SolveFixture* f = [] {
    auto* out = new SolveFixture;
    out->grid = std::make_unique<RoutingGrid>(
        64, 64, make_default_layer_stack(5), ViaSpec{});
    out->costs = std::make_unique<CongestionCosts>(*out->grid);
    Rng rng(29);
    const auto m = static_cast<std::uint64_t>(out->grid->graph().num_edges());
    for (int k = 0; k < 20000; ++k) {
      out->costs->add_usage({static_cast<EdgeId>(rng.uniform(m))}, +1.0);
    }
    std::set<std::pair<std::int32_t, std::int32_t>> used;
    const auto pick = [&] {
      while (true) {
        const auto x = static_cast<std::int32_t>(rng.uniform(64));
        const auto y = static_cast<std::int32_t>(rng.uniform(64));
        if (used.insert({x, y}).second) return Point3{x, y, 0};
      }
    };
    Net net;
    net.source = pick();
    std::vector<double> weights;
    for (int s = 0; s < 24; ++s) {
      net.sinks.push_back(SinkPin{pick(), 0.0});
      weights.push_back(0.1 + rng.uniform_double());
    }
    OracleParams params;
    params.dbif = 2.0;
    params.eta = 0.25;
    out->oi = std::make_unique<OracleInstance>(*out->grid, *out->costs, net,
                                               weights, params);
    out->csr = std::make_unique<MaterializedInstance>(*out->oi);
    // Both paths must give the same result before either is timed.
    SolverOptions opts;
    opts.future_cost = &out->oi->future_cost();
    CdSolver solver(opts);
    const StatusOr<SolveResult> box = solver.solve(out->oi->instance());
    const StatusOr<SolveResult> csr = solver.solve(out->csr->instance());
    if (!box.ok() || !csr.ok() ||
        box->tree.all_edges() != csr->tree.all_edges() ||
        box->eval.objective != csr->eval.objective ||
        box->stats.labels_settled != csr->stats.labels_settled) {
      std::fprintf(stderr, "bench_relax: box and CSR solves differ\n");
      std::abort();
    }
    return out;
  }();
  return *f;
}

/// arg 0: the materialized CSR, relaxed per edge; arg 1: the box instance,
/// relaxed through the Vec4d strips.
void BM_Relax_CdSolveBoxVsCsr(benchmark::State& state) {
  const bool strips = state.range(0) != 0;
  const SolveFixture& f = solve_fixture();
  const CostDistanceInstance& inst =
      strips ? f.oi->instance() : f.csr->instance();
  SolverOptions opts;
  opts.future_cost = &f.oi->future_cost();
  CdSolver solver(opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(inst));
  }
  state.SetLabel(strips ? Vec4d::isa() : "per_edge");
}
BENCHMARK(BM_Relax_CdSolveBoxVsCsr)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Round executor: an imbalanced sharded round (some tiles several times
// hotter than others, so whole-shard execution would idle the other lanes;
// heaviest-first spans keep every lane busy).

struct RouterFixture {
  ChipConfig config;
  RoutingGrid grid;
  Netlist netlist;
};

const RouterFixture& router_fixture() {
  static const RouterFixture* f = [] {
    ChipConfig c;
    c.name = "bench_relax";
    c.num_nets = 200;
    c.num_layers = 4;
    c.nx = c.ny = 28;
    c.capacity = 12.0;
    c.seed = 19;
    // Clustered pins: netlist_gen draws uniformly, so the imbalance is
    // produced by the shard lattice instead — 16 tiles over 200 nets leaves
    // some tiles several times hotter than others.
    auto* out = new RouterFixture{c, make_chip_grid(c), {}};
    out->netlist = generate_netlist(c, out->grid);
    return out;
  }();
  return *f;
}

/// One sharded router session (heaviest-first spans on the pool): 4
/// workers, 16 shards, 2 Lagrangean rounds.
void BM_Relax_ShardedRound(benchmark::State& state) {
  const RouterFixture& f = router_fixture();
  RouterOptions opts;
  opts.method = SteinerMethod::kCD;
  opts.threads = 4;
  opts.shards = 16;
  for (auto _ : state) {
    Router session(f.grid, f.netlist, opts);
    const Status st = session.run(2);
    if (!st.ok()) {
      std::fprintf(stderr, "bench_relax: run failed: %s\n",
                   st.to_string().c_str());
      std::abort();
    }
    benchmark::DoNotOptimize(session.result());
  }
}
BENCHMARK(BM_Relax_ShardedRound)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Window rebuild: every c8 net's routing window priced against warm prices,
// the per-net setup in front of every solve. A window is a box plus one
// price snapshot per window resource (two per vertex) and a per-class table
// of unit cost and delay.

struct WindowFixture {
  std::unique_ptr<RoutingGrid> grid;
  std::unique_ptr<Netlist> netlist;
  std::unique_ptr<CongestionCosts> costs;
  OracleParams params;
  std::vector<SparseMap<double>> own_usage;  ///< per net, its route's usage
};

const WindowFixture& window_fixture() {
  static const WindowFixture* f = [] {
    auto* out = new WindowFixture;
    const ChipConfig config = paper_chip_configs(0.001).at(7);
    out->grid = std::make_unique<RoutingGrid>(make_chip_grid(config));
    out->netlist =
        std::make_unique<Netlist>(generate_netlist(config, *out->grid));
    RouterOptions opts;
    opts.method = SteinerMethod::kCD;
    opts.seed = 1;
    Router warm(*out->grid, *out->netlist, opts);
    if (!warm.run(2).ok()) {
      std::fprintf(stderr, "bench_relax: warm-up rounds failed\n");
      std::abort();
    }
    const RouterResult state = std::move(warm).take_result();
    out->params = opts.oracle;
    out->costs = std::make_unique<CongestionCosts>(*out->grid, opts.congestion);
    for (const auto& route : state.routes) out->costs->add_usage(route, +1.0);
    for (const auto& route : state.routes) {
      SparseMap<double>& own = out->own_usage.emplace_back();
      for (const EdgeId e : route) {
        own[out->grid->edge_info(e).resource] += out->grid->edge_info(e).width;
      }
    }
    return out;
  }();
  return *f;
}

/// arg 0: batched pricing (prices as they stand); arg 1: sharded pricing,
/// each net's own usage priced out of its window.
void BM_Window_Rebuild(benchmark::State& state) {
  const bool exclude = state.range(0) != 0;
  const WindowFixture& f = window_fixture();
  RoutingWindow window;
  double bytes = 0.0;
  double vertices = 0.0;
  for (auto _ : state) {
    bytes = 0.0;
    vertices = 0.0;
    for (std::size_t i = 0; i < f.netlist->nets.size(); ++i) {
      const Net& net = f.netlist->nets[i];
      if (net.sinks.empty()) continue;
      window.rebuild(*f.grid, *f.costs, net_window_box(net, f.params),
                     exclude ? &f.own_usage[i] : nullptr);
      const BoxPrices p = window.prices();
      bytes += static_cast<double>(p.price.size_bytes() + p.unit.size_bytes() +
                                   p.delay.size_bytes());
      vertices += static_cast<double>(window.box_graph().num_vertices());
      benchmark::DoNotOptimize(p.price.data());
    }
  }
  state.counters["bytes_per_vertex"] = bytes / vertices;
  state.SetLabel(exclude ? "own_usage_excluded" : "batched");
}
BENCHMARK(BM_Window_Rebuild)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

// Emits machine-readable results to BENCH_relax.json by default so the perf
// trajectory is tracked PR-over-PR (CI uploads it as an artifact); any
// explicit --benchmark_out= flag takes precedence.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).starts_with("--benchmark_out=")) {
      has_out = true;
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_relax.json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int ac = static_cast<int>(args.size());
  benchmark::Initialize(&ac, args.data());
  if (benchmark::ReportUnrecognizedArguments(ac, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
