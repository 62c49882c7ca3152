// Microbenchmark for the router's round disciplines: the legacy batched
// rip-up & re-route loop (shards = 0) against spatially sharded rounds
// (shards >= 1, route/sharding.h). Both disciplines price windows by
// gathering from the per-resource price table; sharded rounds freeze the
// prices once per round and fan shards out across the worker pool with one
// merge barrier per round, where batched rounds wait at a barrier after
// every batch. Before the timed rows run, main()
// verifies that sharded results are bit-identical at 1 and 4 shards (the
// documented shard-count invariance).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "api/cdst.h"
#include "dist/transport.h"
#include "route/netlist_gen.h"

#if defined(CDST_SHARD_WORKER_PATH)
#include "dist/subprocess_transport.h"
#endif

namespace {

using namespace cdst;

struct Fixture {
  ChipConfig config;
  RoutingGrid grid;
  Netlist netlist;
};

const Fixture& fixture() {
  static const Fixture* f = [] {
    ChipConfig c;
    c.name = "bench";
    c.num_nets = 240;
    c.num_layers = 4;
    c.nx = c.ny = 28;
    c.capacity = 12.0;
    c.seed = 3;
    auto* out = new Fixture{c, make_chip_grid(c), {}};
    out->netlist = generate_netlist(c, out->grid);
    return out;
  }();
  return *f;
}

RouterOptions options_for(int shards) {
  RouterOptions opts;
  opts.method = SteinerMethod::kCD;
  opts.threads = 4;
  opts.shards = shards;
  return opts;
}

RouterResult route_rounds(int shards, int rounds) {
  const Fixture& f = fixture();
  Router session(f.grid, f.netlist, options_for(shards));
  const Status st = session.run(rounds);
  if (!st.ok()) {
    std::fprintf(stderr, "bench_router: run failed: %s\n",
                 st.to_string().c_str());
    std::abort();
  }
  return std::move(session).take_result();
}

/// arg 0: the legacy batched discipline; arg >= 1: sharded rounds with that
/// many grid tiles. All rows run 2 Lagrangean rounds on a 4-worker pool.
void BM_Router_Sharded(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  const Fixture& f = fixture();
  const RouterOptions opts = options_for(shards);
  for (auto _ : state) {
    Router session(f.grid, f.netlist, opts);
    benchmark::DoNotOptimize(session.run(2));
    benchmark::DoNotOptimize(session.result());
  }
  state.SetLabel(shards == 0 ? "batched" : "sharded");
}
BENCHMARK(BM_Router_Sharded)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// Sharded rounds across the transport tiers (dist/transport.h): first arg
/// 0 runs the rounds directly, 1 through the InProcessTransport
/// serialization loopback (the wire tax: encode + parse every boundary,
/// zero IO), 2 through SubprocessTransport's worker pool (the wire tax plus
/// pipe framing and real process hops). The second arg is the shard count:
/// 4 shards on the 4-lane pool, or 8, the imbalanced shape of perfbench's
/// route_dist, where heaviest-first spans have to even out the lanes.
/// Transports are constructed outside the timed loop — the rows measure
/// steady-state rounds, not worker spawns.
void BM_Router_Transport(benchmark::State& state) {
  const int tier = static_cast<int>(state.range(0));
  const Fixture& f = fixture();
  RouterOptions opts = options_for(static_cast<int>(state.range(1)));

  dist::InProcessTransport in_process;
#if defined(CDST_SHARD_WORKER_PATH)
  dist::SubprocessTransportOptions sopts;
  sopts.worker_path = CDST_SHARD_WORKER_PATH;
  sopts.workers = 4;
  dist::SubprocessTransport subprocess(sopts);
#endif
  if (tier == 1) {
    opts.transport = &in_process;
  } else if (tier == 2) {
#if defined(CDST_SHARD_WORKER_PATH)
    opts.transport = &subprocess;
#else
    state.SkipWithError("cdst_shard_worker not built on this platform");
    return;
#endif
  }

  for (auto _ : state) {
    Router session(f.grid, f.netlist, opts);
    benchmark::DoNotOptimize(session.run(2));
    benchmark::DoNotOptimize(session.result());
  }
  state.SetLabel(tier == 0   ? "direct"
                 : tier == 1 ? "in-process-transport"
                             : "subprocess-transport");
}
BENCHMARK(BM_Router_Transport)
    ->ArgsProduct({{0, 1, 2}, {4, 8}})
    ->Unit(benchmark::kMillisecond);

bool verify_shard_count_invariance() {
  const RouterResult one = route_rounds(/*shards=*/1, /*rounds=*/2);
  const RouterResult four = route_rounds(/*shards=*/4, /*rounds=*/2);
  if (one.routes != four.routes || one.sink_delays != four.sink_delays) {
    std::fprintf(stderr,
                 "bench_router: sharded results are NOT bit-identical "
                 "between 1 and 4 shards\n");
    return false;
  }
  std::fprintf(stderr,
               "bench_router: verified bit-identical routes at 1 and 4 "
               "shards (%zu nets)\n",
               one.routes.size());
  return true;
}

}  // namespace

// Emits machine-readable results to BENCH_router.json by default (CI diffs
// it against the previous main-branch artifact alongside BENCH_cd_scaling);
// an explicit --benchmark_out= flag takes precedence.
int main(int argc, char** argv) {
  if (!verify_shard_count_invariance()) return 1;
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).starts_with("--benchmark_out=")) {
      has_out = true;
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_router.json";
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
