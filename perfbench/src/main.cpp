// perfbench — the repository benchmark. One invocation runs one workload:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints every end-to-end metric; with --trace 1 every
// per-layer metric (0 for layers the workload does not exercise) and writes
// the spans to $PERFBENCH_TRACE_DIR (run.py sets .bench_build/traces). The
// last stdout line is the JSON result; the exit code is 1 when any
// operation or output check failed.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace perfbench {

namespace {

/// The faster half of `passes` by wall time, at least one.
std::vector<const EndToEnd::Pass*> faster_half(
    const std::vector<EndToEnd::Pass>& passes) {
  std::vector<const EndToEnd::Pass*> kept;
  for (const EndToEnd::Pass& p : passes) kept.push_back(&p);
  std::sort(kept.begin(), kept.end(), [](const auto* a, const auto* b) {
    return a->wall_s < b->wall_s;
  });
  kept.resize((kept.size() + 1) / 2);
  return kept;
}

}  // namespace

std::vector<double> EndToEnd::kept_ops() const {
  std::vector<double> ops;
  for (const Pass* p : faster_half(passes)) {
    ops.insert(ops.end(), p->op_ms.begin(), p->op_ms.end());
  }
  return ops;
}

std::vector<double> EndToEnd::all_wall_s() const {
  std::vector<double> wall;
  for (const Pass& p : passes) wall.push_back(p.wall_s);
  return wall;
}

void EndToEnd::report(Outcome& out) const {
  const std::vector<double> ops = kept_ops();
  const std::optional<double> tail = tail_percentile(ops, tail_q);
  out.check("tail_samples", tail.has_value(),
            std::to_string(ops.size()) + " operations");
  std::vector<double> wall, rate;
  for (const Pass* p : faster_half(passes)) {
    wall.push_back(p->wall_s);
    rate.push_back(p->solves_per_s);
  }
  std::fprintf(stderr, "end-to-end from %zu of %zu passes, %zu operations\n",
               wall.size(), passes.size(), ops.size());
  // WS and TNS are negative on every Table V chip; they are reported as
  // magnitudes so that lower is better for both.
  const auto chips =
      static_cast<double>(std::max<std::size_t>(quality.chips, 1));
  out.metric("setup_s", median(setup_s), "s");
  out.metric("wall_s", median(wall), "s");
  out.metric("op_p50_ms", median(ops), "ms");
  out.metric("op_tail_ms", tail.value_or(0.0), "ms");
  out.metric("solves_per_s", median(rate), "1/s");
  out.metric("objective_sum", objective_sum, "cost");
  out.metric("neg_ws_ps", -quality.ws, "ps");
  out.metric("neg_tns_ps", -quality.tns, "ps");
  out.metric("ace4_pct", quality.ace4_sum / chips, "%");
}

void repeat_setup(EndToEnd& e2e, const std::function<void()>& setup) {
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point t0 = Clock::now();
    setup();
    e2e.setup_s.push_back(seconds_between(t0, Clock::now()));
  } while (e2e.setup_s.size() < 3 ||
           (seconds_between(start, Clock::now()) < 1.0 &&
            e2e.setup_s.size() < 25));
}

void run_passes(const RunConfig& cfg, const std::function<void(bool)>& pass,
                const std::function<bool()>& enough) {
  const Clock::time_point start = Clock::now();
  const auto elapsed = [&] { return seconds_between(start, Clock::now()); };
  do {
    pass(false);
    if (cfg.trace) pass(true);
  } while ((elapsed() < cfg.seconds || !enough()) &&
           elapsed() < 6.0 * cfg.seconds);
}

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in BENCHMARK.json order.
constexpr LayerMetric kLayerMetrics[] = {
    {"route.batch_ms.p50", "ms"},
    {"route.batch_ms.p90", "ms"},
    {"route.nets_routed", "count"},
    {"route.barrier_ms.p50", "ms"},
    {"route.shard_ms.p50", "ms"},
    {"route.shard_imbalance", "ratio"},
    {"grid.window_build_ms.p50", "ms"},
    {"grid.window_build_ms.p99", "ms"},
    {"grid.window_build_s", "s"},
    {"core.solve_ms.p50.b3-5", "ms"},
    {"core.solve_ms.p50.b6-14", "ms"},
    {"core.solve_ms.p50.b15-29", "ms"},
    {"core.solve_ms.p50.b30plus", "ms"},
    {"core.labels_settled", "count"},
    {"core.labels_relaxed", "count"},
    {"core.stale_ratio", "ratio"},
    {"core.settled_per_tree_edge", "ratio"},
    {"api.batch_efficiency", "ratio"},
    {"api.result_ms", "ms"},
    {"dist.configure_ms", "ms"},
    {"dist.begin_round_ms.p50", "ms"},
    {"dist.dispatch_ms.p50", "ms"},
    {"dist.dispatch_ms.p90", "ms"},
    {"dist.dispatches", "count"},
    {"dist.dispatch_failed", "count"},
    {"dist.bytes_per_round", "computed-B"},
    {"serve.slice_ms.router.p50", "ms"},
    {"serve.slice_ms.router.p90", "ms"},
    {"serve.slice_ms.solver.p50", "ms"},
    {"serve.slice_ms.solver.p90", "ms"},
    {"serve.queue_wait_ms.p50", "ms"},
    {"serve.queue_wait_ms.p90", "ms"},
    {"serve.stats_ms.p50", "ms"},
    {"serve.slices", "count"},
    {"serve.gen_late_ms.max", "ms"},
    {"trace.overhead_pct", "%"},
};

struct Workload {
  const char* name;
  void (*run)(const RunConfig&, Outcome&, Tracer*, LayerFigures&);
};

constexpr Workload kWorkloads[] = {
    {"route_tableV", route_table_v},
    {"solve_corpus", solve_corpus},
    {"route_dist", route_dist},
    {"serve_mix", serve_mix},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<route_tableV|solve_corpus|route_dist|serve_mix> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Workload* workload = nullptr;
  RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) usage("missing value");
    const char* flag = argv[i];
    const char* value = argv[++i];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(value, w.name) == 0) workload = &w;
      }
      if (workload == nullptr) usage("unknown workload");
    } else if (std::strcmp(flag, "--seed") == 0) {
      cfg.seed = std::strtoull(value, &end, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      cfg.seconds = std::strtod(value, &end);
    } else if (std::strcmp(flag, "--trace") == 0) {
      cfg.trace = std::strtol(value, &end, 10) != 0;
    } else {
      usage("unknown flag");
    }
    if (end != nullptr && *end != '\0') usage("malformed number");
  }
  if (workload == nullptr) usage("--workload is required");

  Outcome out;
  Tracer tracer;
  LayerFigures layers;
  workload->run(cfg, out, cfg.trace ? &tracer : nullptr, layers);

  if (cfg.trace) {
    for (const LayerMetric& m : kLayerMetrics) {
      const auto it = layers.find(m.name);
      out.metric(m.name, it == layers.end() ? 0.0 : it->second, m.unit);
    }
    const char* env_dir = std::getenv("PERFBENCH_TRACE_DIR");
    const std::string dir = env_dir != nullptr ? env_dir : "traces";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path = dir + "/" + workload->name + "-seed" +
                             std::to_string(cfg.seed) + ".json";
    std::fprintf(stderr, "perfbench: %zu spans -> %s%s\n", tracer.size(),
                 path.c_str(), tracer.write(path) ? "" : " (write FAILED)");
    std::fprintf(stderr, "self time by span (ms):\n");
    for (const auto& [name, ms] : tracer.self_time_ms()) {
      std::fprintf(stderr, "  %-22s %12.3f\n", name.c_str(), ms);
    }
  }
  std::fputs(out.accounting().c_str(), stderr);
  std::printf("%s\n", out.json().c_str());
  return out.correct() ? 0 : 1;
}
