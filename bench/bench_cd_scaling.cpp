// Microbenchmark for Theorem 1: the cost-distance solver's running time is
// O(t (n log n + m)). Sweeps the terminal count t at fixed graph size, and
// the grid size n at fixed t; the reported times should grow ~linearly in t
// and ~n log n in the graph size. The instances are CSR graphs over a whole
// grid, which the solver relaxes per edge (bench_relax times the box strip
// kernel of routing windows).

#include <benchmark/benchmark.h>

#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "api/cdst.h"
#include "grid/future_cost.h"
#include "grid/routing_grid.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace cdst;

struct Fixture {
  std::unique_ptr<RoutingGrid> grid;
  std::unique_ptr<FutureCost> fc;
  std::vector<double> cost;
  std::vector<double> delay;
  CostDistanceInstance inst;
};

Fixture make(std::uint64_t seed, int side, int layers, std::size_t sinks) {
  Fixture f;
  f.grid = std::make_unique<RoutingGrid>(
      side, side, make_default_layer_stack(layers), ViaSpec{});
  f.fc = std::make_unique<FutureCost>(*f.grid);
  Rng rng(seed);
  f.cost.resize(f.grid->graph().num_edges());
  f.delay = f.grid->edge_delays();
  for (std::size_t e = 0; e < f.cost.size(); ++e) {
    f.cost[e] = f.grid->base_costs()[e] * (1.0 + 3.0 * rng.uniform_double());
  }
  f.inst.graph = &f.grid->graph();
  f.inst.cost = &f.cost;
  f.inst.delay = &f.delay;
  f.inst.dbif = 2.0;
  f.inst.eta = 0.25;
  std::set<VertexId> used;
  auto pick = [&]() {
    while (true) {
      const VertexId v = f.grid->vertex_at(
          static_cast<std::int32_t>(rng.uniform(static_cast<std::uint64_t>(side))),
          static_cast<std::int32_t>(rng.uniform(static_cast<std::uint64_t>(side))),
          0);
      if (used.insert(v).second) return v;
    }
  };
  f.inst.root = pick();
  for (std::size_t s = 0; s < sinks; ++s) {
    f.inst.sinks.push_back(Terminal{pick(), 0.1 + rng.uniform_double()});
  }
  return f;
}

void BM_CostDistance_SinkCount(benchmark::State& state) {
  const auto sinks = static_cast<std::size_t>(state.range(0));
  const Fixture f = make(42, 48, 5, sinks);
  SolverOptions opts;
  opts.future_cost = f.fc.get();
  CdSolver solver(opts);  // session: scratch recycled across iterations
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(f.inst));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(sinks));
}
BENCHMARK(BM_CostDistance_SinkCount)
    ->RangeMultiplier(2)
    ->Range(2, 128)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMillisecond);

void BM_CostDistance_GraphSize(benchmark::State& state) {
  const auto side = static_cast<int>(state.range(0));
  const Fixture f = make(7, side, 4, 16);
  SolverOptions opts;
  opts.future_cost = f.fc.get();
  CdSolver solver(opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(f.inst));
  }
  state.SetComplexityN(
      static_cast<benchmark::IterationCount>(f.inst.graph->num_vertices()));
}
BENCHMARK(BM_CostDistance_GraphSize)
    ->RangeMultiplier(2)
    ->Range(16, 128)
    ->Complexity(benchmark::oNLogN)
    ->Unit(benchmark::kMillisecond);

void BM_CostDistance_AStarOnOff(benchmark::State& state) {
  const Fixture f = make(11, 64, 5, 24);
  SolverOptions opts;
  opts.future_cost = f.fc.get();
  opts.use_astar = state.range(0) != 0;
  CdSolver solver(opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(f.inst));
  }
}
BENCHMARK(BM_CostDistance_AStarOnOff)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Deterministic parallel batch solving through the session API: 24 oracle
// calls (the same instance under distinct seeds, standing in for a router
// batch) on a shared ThreadPool. Results are bit-identical at every thread
// count; the time should scale with the workers.
void BM_CostDistance_BatchSolve(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const Fixture f = make(23, 48, 5, 16);
  SolverOptions opts;
  opts.future_cost = f.fc.get();
  ThreadPool pool(threads);
  CdSolver solver(opts, &pool);
  std::vector<CdSolver::Job> jobs(24);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    jobs[j].instance = &f.inst;
    jobs[j].seed = j + 1;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve_batch(std::span(jobs)));
  }
}
BENCHMARK(BM_CostDistance_BatchSolve)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// The streaming pipeline over the same 24 oracle calls: submit through a
// bounded window (8 in flight), poll opportunistically, drain the tail.
// Results are delivered strictly in submission order and bit-identical to
// BatchSolve; the interesting delta is the overhead of per-job dispatch +
// ordered delivery vs the batch barrier, across thread counts.
void BM_CostDistance_StreamSolve(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const Fixture f = make(23, 48, 5, 16);
  SolverOptions opts;
  opts.future_cost = f.fc.get();
  ThreadPool pool(threads);
  CdSolver solver(opts, &pool);
  std::vector<CdSolver::Job> jobs(24);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    jobs[j].instance = &f.inst;
    jobs[j].seed = j + 1;
  }
  for (auto _ : state) {
    SolveStream stream = solver.stream({.window = 8});
    std::size_t delivered = 0;
    for (const CdSolver::Job& job : jobs) {
      benchmark::DoNotOptimize(stream.submit(job));
      while (auto r = stream.poll()) {
        benchmark::DoNotOptimize(r->ok());
        ++delivered;
      }
    }
    for (StatusOr<SolveResult>& r : stream.drain()) {
      benchmark::DoNotOptimize(r.ok());
      ++delivered;
    }
    if (delivered != jobs.size()) state.SkipWithError("lost results");
  }
}
BENCHMARK(BM_CostDistance_StreamSolve)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Emits machine-readable results to BENCH_cd_scaling.json by default so the
// perf trajectory is tracked PR-over-PR (CI uploads it as an artifact); any
// explicit --benchmark_out= flag takes precedence.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).starts_with("--benchmark_out=")) {
      has_out = true;
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_cd_scaling.json";
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
