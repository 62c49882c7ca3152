// Microbenchmark for the multi-tenant serving core (serve/serve.h):
// tenant-count scaling of the round-sliced scheduler over one shared
// Engine, the completion spread of its fair scheduler across equal
// tenants, and how long a solve that arrives behind router tenants waits.
// The serving core's contract is that scheduling only
// reorders work — per tenant, any serve schedule commits exactly the
// rounds a serial Router::run would — so before the timed rows run,
// main() verifies that served results are bit-identical to serial
// sessions for every tenant.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/engine.h"
#include "grid/future_cost.h"
#include "route/netlist_gen.h"
#include "serve/serve.h"

namespace {

using namespace cdst;

constexpr int kRoundsPerTenant = 2;
constexpr int kMaxTenants = 8;

struct Fixture {
  ChipConfig config;
  RoutingGrid grid;
  Netlist netlist;
};

// One chip per tenant slot (distinct seeds, same shape) so tenants route
// genuinely different workloads while rows stay comparable.
const Fixture& fixture(int slot) {
  static const std::vector<Fixture>* fixtures = [] {
    auto* out = new std::vector<Fixture>();
    out->reserve(kMaxTenants);
    for (int i = 0; i < kMaxTenants; ++i) {
      ChipConfig c;
      c.name = "serve-bench";
      c.num_nets = 60;
      c.num_layers = 3;
      c.nx = c.ny = 16;
      c.capacity = 9.0;
      c.seed = 11 + static_cast<std::uint64_t>(i);
      Fixture f{c, make_chip_grid(c), {}};
      f.netlist = generate_netlist(f.config, f.grid);
      out->push_back(std::move(f));
    }
    return out;
  }();
  return (*fixtures)[slot];
}

RouterOptions tenant_options() {
  RouterOptions opts;
  opts.method = SteinerMethod::kCD;
  opts.shards = 2;
  opts.seed = 7;
  return opts;
}

/// arg: concurrently admitted router tenants, each serving
/// kRoundsPerTenant rounds on a 4-lane engine. Measures the whole
/// admit -> pump-to-idle -> close cycle, i.e. the serving core's
/// scheduling overhead on top of the routing work itself.
void BM_Serve_TenantScaling(benchmark::State& state) {
  const int tenants = static_cast<int>(state.range(0));
  Engine engine({/*threads=*/4, /*dense_state_budget_bytes=*/256u << 20});
  for (auto _ : state) {
    serve::EngineServer server(engine);
    std::vector<serve::SessionId> ids;
    for (int t = 0; t < tenants; ++t) {
      const Fixture& f = fixture(t);
      auto id = server.open_router_session(f.grid, f.netlist, tenant_options());
      if (!id.ok() || !server.submit_rounds(id.value(), kRoundsPerTenant).ok()) {
        state.SkipWithError("open/submit failed");
        return;
      }
      ids.push_back(id.value());
    }
    benchmark::DoNotOptimize(server.run_until_idle());
    for (serve::SessionId id : ids) benchmark::DoNotOptimize(server.result(id));
  }
  state.SetLabel("rounds/tenant=" + std::to_string(kRoundsPerTenant));
}
BENCHMARK(BM_Serve_TenantScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Fair scheduling over 4 equal-weight tenants: *when* each tenant
/// finishes. The row pumps step() manually and records the scheduling
/// quantum at which each tenant completed its last round; the
/// "completion_spread" counter is last-finisher minus first-finisher in
/// slices. Weights are shares of oracle work, so a tenant whose rounds
/// cost less work may run its second round before a heavier tenant's
/// first (6 of the 8 slices here); running tenants to completion one after
/// another would spread them by the slices of all later tenants.
void BM_Serve_FairCompletionSpread(benchmark::State& state) {
  const int tenants = 4;
  Engine engine({/*threads=*/4, /*dense_state_budget_bytes=*/256u << 20});
  double spread = 0.0;
  for (auto _ : state) {
    serve::EngineServer server(engine);
    std::vector<serve::SessionId> ids;
    for (int t = 0; t < tenants; ++t) {
      const Fixture& f = fixture(t);
      auto id = server.open_router_session(f.grid, f.netlist, tenant_options());
      if (!id.ok() || !server.submit_rounds(id.value(), kRoundsPerTenant).ok()) {
        state.SkipWithError("open/submit failed");
        return;
      }
      ids.push_back(id.value());
    }
    std::vector<std::size_t> finish_slice(ids.size(), 0);
    std::size_t slices = 0;
    while (server.step()) {
      ++slices;
      const serve::ServeStats stats = server.stats();
      for (std::size_t t = 0; t < ids.size(); ++t) {
        if (finish_slice[t] != 0) continue;
        for (const serve::TenantSnapshot& snap : stats.tenants) {
          if (snap.id == ids[t] &&
              snap.rounds_completed == kRoundsPerTenant) {
            finish_slice[t] = slices;
          }
        }
      }
    }
    std::size_t first = slices, last = 0;
    for (std::size_t f : finish_slice) {
      if (f < first) first = f;
      if (f > last) last = f;
    }
    spread = static_cast<double>(last - first);
    benchmark::DoNotOptimize(slices);
  }
  state.counters["completion_spread_slices"] = spread;
  state.SetLabel("fair-sfq");
}
BENCHMARK(BM_Serve_FairCompletionSpread)->Unit(benchmark::kMillisecond);

/// One small standalone solve (4 sinks on a 16 x 16 x 3 grid): the cheap
/// request a solver tenant serves beside the router tenants.
struct SolveFixture {
  std::unique_ptr<RoutingGrid> grid;
  std::unique_ptr<FutureCost> fc;
  std::vector<double> cost;
  std::vector<double> delay;
  CostDistanceInstance inst;
};

const SolveFixture& solve_fixture() {
  static const SolveFixture* fixture = [] {
    auto* f = new SolveFixture();
    f->grid = std::make_unique<RoutingGrid>(
        16, 16, make_default_layer_stack(3), ViaSpec{});
    f->fc = std::make_unique<FutureCost>(*f->grid);
    f->cost = f->grid->base_costs();
    f->delay = f->grid->edge_delays();
    f->inst.graph = &f->grid->graph();
    f->inst.cost = &f->cost;
    f->inst.delay = &f->delay;
    f->inst.dbif = 2.0;
    f->inst.eta = 0.25;
    f->inst.root = f->grid->vertex_at(2, 3, 0);
    f->inst.sinks = {Terminal{f->grid->vertex_at(12, 4, 0), 0.6},
                     Terminal{f->grid->vertex_at(5, 13, 0), 0.3},
                     Terminal{f->grid->vertex_at(14, 14, 0), 0.9},
                     Terminal{f->grid->vertex_at(8, 8, 0), 0.2}};
    return f;
  }();
  return *fixture;
}

/// Two router tenants (one slice = one sharded round) and a solver tenant
/// (weight 2) that receives one job after every router slice: the wait of
/// a cheap solve that arrives behind router work. The deterministic
/// counter "router_slices_waited" is the most router slices that ran
/// between a job's submission and its solve — a fair schedule that serves
/// a newly runnable light tenant at the next slice boundary reads 0, one
/// that lets the other router's slice go first reads 1. "wait_ms_mean" is
/// the wall-clock time from submission to the end of the solving step.
void BM_Serve_SolveBesideRouters(benchmark::State& state) {
  constexpr int kRounds = 4;
  Engine engine({/*threads=*/4, /*dense_state_budget_bytes=*/256u << 20});
  const SolveFixture& solve = solve_fixture();
  CdSolver::Job job;
  job.instance = &solve.inst;
  job.future_cost = solve.fc.get();
  std::size_t waited_max = 0;
  double wait_ms_sum = 0.0;
  std::size_t jobs_solved = 0;
  for (auto _ : state) {
    serve::EngineServer server(engine);
    for (int t = 0; t < 2; ++t) {
      const Fixture& f = fixture(t);
      auto id = server.open_router_session(f.grid, f.netlist, tenant_options());
      if (!id.ok() || !server.submit_rounds(id.value(), kRounds).ok()) {
        state.SkipWithError("open/submit failed");
        return;
      }
    }
    serve::TenantOptions solver_tenant;
    solver_tenant.weight = 2;
    const StatusOr<serve::SessionId> solver =
        server.open_solver_session(SolverOptions{}, solver_tenant);
    if (!solver.ok()) {
      state.SkipWithError("solver open failed");
      return;
    }
    struct Submitted {
      std::chrono::steady_clock::time_point at;
      std::size_t router_slices;
    };
    std::deque<Submitted> queued;
    std::size_t router_slices = 0;
    while (server.step()) {
      if (server.results_ready(solver.value()) == 0) {
        // A router slice ran: a request arrives behind it.
        ++router_slices;
        if (!server.submit_job(solver.value(), job).ok()) {
          state.SkipWithError("submit_job failed");
          return;
        }
        queued.push_back({std::chrono::steady_clock::now(), router_slices});
        continue;
      }
      const auto now = std::chrono::steady_clock::now();
      while (server.results_ready(solver.value()) > 0) {
        benchmark::DoNotOptimize(server.pop_result(solver.value()));
        const Submitted& s = queued.front();
        waited_max = std::max(waited_max, router_slices - s.router_slices);
        wait_ms_sum +=
            std::chrono::duration<double, std::milli>(now - s.at).count();
        ++jobs_solved;
        queued.pop_front();
      }
    }
  }
  state.counters["router_slices_waited"] = static_cast<double>(waited_max);
  state.counters["wait_ms_mean"] =
      jobs_solved > 0 ? wait_ms_sum / static_cast<double>(jobs_solved) : 0.0;
  state.SetLabel("fair-sfq");
}
BENCHMARK(BM_Serve_SolveBesideRouters)->Unit(benchmark::kMillisecond);

bool verify_serve_matches_serial() {
  const int tenants = 3;
  Engine engine({/*threads=*/4, /*dense_state_budget_bytes=*/256u << 20});
  serve::EngineServer server(engine);
  std::vector<serve::SessionId> ids;
  for (int t = 0; t < tenants; ++t) {
    const Fixture& f = fixture(t);
    auto id = server.open_router_session(f.grid, f.netlist, tenant_options());
    if (!id.ok() || !server.submit_rounds(id.value(), kRoundsPerTenant).ok()) {
      std::fprintf(stderr, "bench_serve: open/submit failed\n");
      return false;
    }
    ids.push_back(id.value());
  }
  const Status pump = server.run_until_idle();
  if (!pump.ok()) {
    std::fprintf(stderr, "bench_serve: pump failed: %s\n",
                 pump.to_string().c_str());
    return false;
  }
  for (int t = 0; t < tenants; ++t) {
    const Fixture& f = fixture(t);
    Router serial(f.grid, f.netlist, tenant_options());
    if (!serial.run(kRoundsPerTenant).ok()) {
      std::fprintf(stderr, "bench_serve: serial run failed\n");
      return false;
    }
    const RouterResult want = std::move(serial).take_result();
    const StatusOr<RouterResult> got = server.result(ids[t]);
    if (!got.ok() || got.value().routes != want.routes ||
        got.value().sink_delays != want.sink_delays) {
      std::fprintf(stderr,
                   "bench_serve: served tenant %d is NOT bit-identical to "
                   "its serial session\n",
                   t);
      return false;
    }
  }
  std::fprintf(stderr,
               "bench_serve: verified %d served tenants bit-identical to "
               "serial sessions\n",
               tenants);
  return true;
}

}  // namespace

// Emits machine-readable results to BENCH_serve.json by default (CI diffs
// it against the previous main-branch artifact alongside BENCH_router);
// an explicit --benchmark_out= flag takes precedence.
int main(int argc, char** argv) {
  if (!verify_serve_matches_serial()) return 1;
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).starts_with("--benchmark_out=")) {
      has_out = true;
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_serve.json";
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
