// Microbenchmark for the multi-tenant serving core (serve/serve.h):
// tenant-count scaling of the round-sliced scheduler over one shared
// Engine, and the completion spread of its deficit round-robin across
// equal tenants. The serving core's contract is that scheduling only
// reorders work — per tenant, any serve schedule commits exactly the
// rounds a serial Router::run would — so before the timed rows run,
// main() verifies that served results are bit-identical to serial
// sessions for every tenant.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "api/engine.h"
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

/// Fair (deficit round-robin) scheduling over 4 equal tenants: *when*
/// each tenant finishes. The row pumps step() manually and records the
/// scheduling quantum at which each tenant completed its last round; the
/// "completion_spread" counter is last-finisher minus first-finisher in
/// slices — fair interleaving finishes everyone within one scheduling
/// cycle of each other, where running tenants to completion one after
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
  state.SetLabel("fair-drr");
}
BENCHMARK(BM_Serve_FairCompletionSpread)->Unit(benchmark::kMillisecond);

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
