// solve_corpus: the Lagrangean subproblems themselves. Set-up routes c7 and
// c8 for warm-up rounds and builds every net's OracleInstance against the
// warm prices and multipliers; each timed pass solves the whole corpus
// serially with CdSolver::solve (latency) and then with solve_batch on the
// pool (throughput). The operation is one serial solve; the quality
// metrics describe the warm routing state the corpus is cut from.

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <random>

#include "checks.h"
#include "corpus.h"
#include "workloads.h"

namespace perfbench {

using namespace cdst;

namespace {

/// Warm-up rounds before the corpus is built, as in the Tables I/II harness.
constexpr int kWarmRounds = 4;
/// Serial solves needed before the p99 latency may be reported.
constexpr std::size_t kMinLatencySamples = 100 * kMinBeyond;

}  // namespace

void solve_corpus(const RunConfig& cfg, Outcome& out, Tracer* tracer,
                  LayerFigures& layers) {
  const int lane_count = lanes();
  ThreadPool pool(lane_count);
  Corpus corpus;
  EndToEnd e2e;
  e2e.tail_q = 0.99;
  repeat_setup(e2e, [&] {
    corpus = Corpus{};  // release the previous corpus before rebuilding
    corpus = build_corpus({7, 8}, kWarmRounds, pool, out, tracer);
  });
  const std::size_t n = corpus.jobs.size();
  // The seed orders the serial solves; results are compared per instance.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::shuffle(order.begin(), order.end(), std::mt19937_64(cfg.seed));
  CdSolver solver(corpus.solver_options, &pool);

  std::vector<double> traced_latency_ms, traced_s, efficiency;
  std::vector<SolveResult> serial(n);
  std::optional<double> objective_sum;
  SolveStats stats_sum;
  std::size_t tree_edges = 0;
  run_passes(
      cfg,
      [&](bool traced) {
        Tracer* tr = traced ? tracer : nullptr;
        const ScopedSpan pass_span(tr, "pass");
        std::vector<double> lat(n);  // serial latency per instance
        double serial_s = 0.0;
        for (const std::size_t i : order) {
          const ScopedSpan span(tr, "api.solve", pass_span.id(),
                                static_cast<std::int64_t>(i));
          const Clock::time_point t0 = Clock::now();
          StatusOr<SolveResult> r = solver.solve(corpus.jobs[i]);
          const Clock::time_point t1 = Clock::now();
          lat[i] = ms_between(t0, t1);
          serial_s += seconds_between(t0, t1);
          out.op("solves", r.status());
          if (r.ok()) serial[i] = std::move(r).value();
        }
        const ScopedSpan batch_span(tr, "api.solve_batch", pass_span.id());
        const Clock::time_point b0 = Clock::now();
        const StatusOr<std::vector<SolveResult>> batch =
            solver.solve_batch(corpus.jobs);
        const double batch_s = seconds_between(b0, Clock::now());
        out.op("batch_solves", batch.status(), n);
        if (traced) {
          traced_s.push_back(serial_s + batch_s);
          efficiency.push_back(serial_s / (batch_s * lane_count));
          traced_latency_ms.insert(traced_latency_ms.end(), lat.begin(),
                                   lat.end());
        } else {
          e2e.passes.push_back(EndToEnd::Pass{
              serial_s + batch_s, static_cast<double>(n) / batch_s, lat});
        }

        std::string why;
        for (std::size_t i = 0; batch.ok() && i < n && why.empty(); ++i) {
          why = compare_solve(batch.value()[i], serial[i]);
          if (!why.empty()) why = "instance " + std::to_string(i) + ": " + why;
        }
        out.check("batch_equals_serial", batch.ok() && why.empty(), why);
        double sum = 0.0;
        for (const SolveResult& r : serial) sum += r.eval.objective;
        if (objective_sum) {
          out.check("objective_sum_repeats", sum == *objective_sum);
          return;
        }
        // First pass: every objective against a fresh evaluation, and the
        // pass's exact work counters.
        objective_sum = sum;
        std::size_t lo = 0;
        for (std::size_t c = 0; c < corpus.chips.size(); ++c) {
          const std::size_t hi = corpus.chip_end[c];
          double build_ms = 0.0, solve_ms = 0.0;
          for (std::size_t i = lo; i < hi; ++i) {
            build_ms += corpus.window_build_ms[i];
            solve_ms += lat[i];
          }
          std::fprintf(stderr,
                       "solve_corpus: %s: %zu windows built in %.3f s, "
                       "solved serially in %.3f s\n",
                       corpus.chips[c]->config.name.c_str(), hi - lo,
                       build_ms / 1e3, solve_ms / 1e3);
          lo = hi;
        }
        why.clear();
        for (std::size_t i = 0; i < n && why.empty(); ++i) {
          why = check_objective(serial[i], *corpus.jobs[i].instance);
          if (!why.empty()) why = "instance " + std::to_string(i) + ": " + why;
          const SolveStats& s = serial[i].stats;
          stats_sum.labels_settled += s.labels_settled;
          stats_sum.labels_relaxed += s.labels_relaxed;
          stats_sum.completions_popped += s.completions_popped;
          stats_sum.completions_stale += s.completions_stale;
          tree_edges += serial[i].eval.num_graph_edges;
        }
        out.check("objective_equals_evaluation", why.empty(), why);
      },
      [&] {
        return cfg.trace ? traced_latency_ms.size() >= kMinLatencySamples
                         : e2e.enough();
      });

  if (cfg.trace) {
    const char* names[] = {"core.solve_ms.p50.b3-5", "core.solve_ms.p50.b6-14",
                           "core.solve_ms.p50.b15-29",
                           "core.solve_ms.p50.b30plus"};
    std::vector<double> by_bucket[4];
    for (std::size_t k = 0; k < traced_latency_ms.size(); ++k) {
      const int b = sink_bucket(corpus.sinks[k % n]);
      if (b >= 0) by_bucket[b].push_back(traced_latency_ms[k]);
    }
    for (int b = 0; b < 4; ++b) layers[names[b]] = median(by_bucket[b]);
    layers["core.labels_settled"] =
        static_cast<double>(stats_sum.labels_settled);
    layers["core.labels_relaxed"] =
        static_cast<double>(stats_sum.labels_relaxed);
    layers["core.stale_ratio"] =
        stats_sum.completions_popped == 0
            ? 0.0
            : static_cast<double>(stats_sum.completions_stale) /
                  static_cast<double>(stats_sum.completions_popped);
    layers["core.settled_per_tree_edge"] =
        tree_edges == 0 ? 0.0
                        : static_cast<double>(stats_sum.labels_settled) /
                              static_cast<double>(tree_edges);
    layers["api.batch_efficiency"] = median(efficiency);
    layers["grid.window_build_ms.p50"] = median(corpus.window_build_ms);
    layers["grid.window_build_ms.p99"] =
        tail_or_zero(corpus.window_build_ms, 0.99);
    double build_s = 0.0;
    for (const double ms : corpus.window_build_ms) build_s += ms / 1e3;
    layers["grid.window_build_s"] = build_s;
    layers["trace.overhead_pct"] = overhead_pct(e2e.all_wall_s(), traced_s);
    return;
  }
  e2e.quality = corpus.warm_quality;
  e2e.objective_sum = objective_sum.value_or(0.0);
  e2e.report(out);
}

}  // namespace perfbench
