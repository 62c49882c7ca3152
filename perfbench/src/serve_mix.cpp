// serve_mix: one EngineServer with two router tenants (Table V chips c4 and
// c5, all rounds submitted up front: a closed loop) and one solver tenant
// fed by an open loop of solve requests at a fixed rate from the single
// pumping thread. Each request is timed from its due time; the operation
// is one request, the pass time is the makespan, and the solves counted
// are the requests plus the tenants' net routes. The seed rotates which
// corpus instance each request carries.

#include <cstdio>
#include <thread>

#include "checks.h"
#include "corpus.h"
#include "serve/serve.h"
#include "workloads.h"

namespace perfbench {

using namespace cdst;

namespace {

constexpr int kRouterChips[] = {4, 5};
/// Requests per pass and their arrival rate. All of them arrive (within
/// 0.4 s) while the routers' rounds run (about 0.6 s of slices per pass),
/// so the makespan and every latency are set by the interleaving, not by
/// the arrival schedule.
constexpr std::size_t kRequests = 120;
constexpr double kRequestsPerSecond = 300.0;
/// The solver tenant's fair-scheduler weight: slices per cycle, enough to
/// drain every request that arrived during the routers' slices.
constexpr int kSolverWeight = 64;
/// Warm-up rounds before the request corpus (chips c1 and c2) is built.
constexpr int kWarmRounds = 4;

}  // namespace

void serve_mix(const RunConfig& cfg, Outcome& out, Tracer* tracer,
               LayerFigures& layers) {
  std::vector<std::unique_ptr<Chip>> chips;
  Corpus corpus;
  EndToEnd e2e;
  e2e.tail_q = 0.9;
  std::unique_ptr<Engine> engine;
  repeat_setup(e2e, [&] {
    engine.reset();
    corpus = Corpus{};
    chips.clear();
    engine = std::make_unique<Engine>(EngineOptions{lanes(), 512u << 20});
    for (const int number : kRouterChips) {
      chips.push_back(make_chip(number));
    }
    corpus = build_corpus({1, 2}, kWarmRounds,
                          engine->thread_pool(), out, nullptr);
  });
  const std::size_t corpus_size = corpus.jobs.size();

  // References, outside the timed section: serial Router sessions and
  // direct CdSolver solves.
  std::vector<RouterResult> want_routes;
  for (const auto& chip : chips) {
    Router serial(chip->grid, chip->netlist, table_v_options(*chip),
                  &engine->thread_pool());
    out.op("reference_rounds", serial.run(kTableVRounds), kTableVRounds);
    want_routes.push_back(std::move(serial).take_result());
  }
  std::vector<SolveResult> want_solves(corpus_size);
  CdSolver direct(corpus.solver_options);
  for (std::size_t j = 0; j < corpus_size; ++j) {
    StatusOr<SolveResult> r = direct.solve(corpus.jobs[j]);
    out.op("reference_solves", r.status());
    if (r.ok()) want_solves[j] = std::move(r).value();
  }

  std::vector<double> traced_makespan_s;
  std::optional<RoutingQuality> first;
  std::optional<double> answer_objective;
  double oracle_solves = kRequests;  // per pass: requests plus net routes
  for (const auto& chip : chips) {
    for (const Net& net : chip->netlist.nets) {
      oracle_solves += net.sinks.empty() ? 0 : kTableVRounds;
    }
  }
  std::vector<double> router_slice_ms, solver_slice_ms, queue_wait_ms,
      stats_ms;
  double gen_late_max_ms = 0.0;
  double slices = 0.0;
  std::size_t max_backlog = 0;  // requests arrived, not yet answered
  run_passes(
      cfg,
      [&](bool traced) {
        Tracer* tr = traced ? tracer : nullptr;
        serve::EngineServer server(*engine);
        std::vector<serve::SessionId> routers;
        for (const auto& chip : chips) {
          serve::TenantOptions tenant;
          tenant.name = chip->config.name;
          StatusOr<serve::SessionId> id = server.open_router_session(
              chip->grid, chip->netlist, table_v_options(*chip),
              tenant);
          out.op("admissions", id.status());
          if (!id.ok()) return;
          out.op("admissions", server.submit_rounds(id.value(), kTableVRounds));
          routers.push_back(id.value());
        }
        serve::TenantOptions solver_tenant;
        solver_tenant.name = "solver";
        solver_tenant.weight = kSolverWeight;
        StatusOr<serve::SessionId> solver_id =
            server.open_solver_session(corpus.solver_options, solver_tenant);
        out.op("admissions", solver_id.status());
        if (!solver_id.ok()) return;
        const serve::SessionId solver = solver_id.value();

        const ScopedSpan pass_span(tr, "pass");
        EndToEnd::Pass timed;
        const Clock::time_point t0 = Clock::now();
        const auto due = [&](std::size_t i) {
          return t0 + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              static_cast<double>(i) / kRequestsPerSecond));
        };
        const auto job_of = [&](std::size_t i) {
          return (i + static_cast<std::size_t>(cfg.seed)) % corpus_size;
        };
        std::size_t next = 0, answered = 0;
        std::size_t mismatched = 0;
        double objective = 0.0;
        std::vector<std::size_t> prev_slices(routers.size() + 1, 0);
        for (;;) {
          Clock::time_point now = Clock::now();
          for (; next < kRequests && due(next) <= now; ++next) {
            out.op("requests_submitted",
                   server.submit_job(solver, corpus.jobs[job_of(next)]));
            gen_late_max_ms = std::max(gen_late_max_ms,
                                       traced ? ms_between(due(next), now)
                                              : 0.0);
          }
          max_backlog = std::max(max_backlog, next - answered);
          const Clock::time_point s0 = Clock::now();
          ScopedSpan step_span(tr, "serve.step", pass_span.id());
          const bool ran = server.step();
          step_span.close();
          const Clock::time_point s1 = Clock::now();
          if (traced && ran) {
            ScopedSpan stats_span(tr, "serve.stats", pass_span.id());
            const serve::ServeStats stats = server.stats();
            stats_span.close();
            stats_ms.push_back(ms_between(s1, Clock::now()));
            slices += 1.0;
            for (const serve::TenantSnapshot& t : stats.tenants) {
              const std::size_t k = t.id - 1;  // ids start at 1, dense
              if (k < prev_slices.size() && t.slices_run > prev_slices[k]) {
                (t.kind == serve::SessionKind::kRouter ? router_slice_ms
                                                       : solver_slice_ms)
                    .push_back(ms_between(s0, s1));
                prev_slices[k] = t.slices_run;
              }
            }
          }
          while (server.results_ready(solver) > 0) {
            StatusOr<SolveResult> r = server.pop_result(solver);
            out.op("requests", r.status());
            if (r.ok()) {
              objective += r.value().eval.objective;
              if (!compare_solve(r.value(), want_solves[job_of(answered)])
                       .empty()) {
                ++mismatched;
              }
            }
            (traced ? queue_wait_ms : timed.op_ms)
                .push_back(ms_between(due(answered), traced ? s0 : s1));
            ++answered;
          }
          if (ran) continue;
          if (next < kRequests) {
            std::this_thread::sleep_until(due(next));
            continue;
          }
          break;  // nothing runnable and every request arrived
        }
        const double makespan = seconds_between(t0, Clock::now());
        if (traced) {
          traced_makespan_s.push_back(makespan);
        } else {
          timed.wall_s = makespan;
          timed.solves_per_s = oracle_solves / makespan;
          e2e.passes.push_back(std::move(timed));
        }
        if (!answer_objective) answer_objective = objective;
        out.check("answer_objective_repeats", objective == *answer_objective);
        out.check("all_requests_answered", answered == kRequests,
                  std::to_string(answered) + " answered");
        out.check("solve_answers_equal_direct", mismatched == 0,
                  std::to_string(mismatched) + " answers differ");
        RoutingQuality quality;
        for (std::size_t t = 0; t < routers.size(); ++t) {
          const StatusOr<RouterResult> got = server.result(routers[t]);
          out.op("router_results", got.status());
          const std::string why =
              got.ok() ? compare_routing(got.value(), want_routes[t]) : "";
          out.check("served_router_equals_serial", got.ok() && why.empty(),
                    why);
          out.op("rounds", server.session_status(routers[t]), kTableVRounds);
          if (got.ok()) quality.add(*chips[t], got.value());
        }
        if (!first) first = quality;
        out.check("quality_repeats", quality == *first);
      },
      [&] {
        return cfg.trace ? router_slice_ms.size() >= 10 * kMinBeyond
                         : e2e.enough();
      });

  // The open loop must stay below what the server sustains: the backlog is
  // bounded by one scheduling cycle's arrivals, not growing with the pass.
  std::fprintf(stderr, "serve_mix: max backlog %zu of %zu requests\n",
               max_backlog, kRequests);
  if (cfg.trace) {
    layers["serve.slice_ms.router.p50"] = median(router_slice_ms);
    layers["serve.slice_ms.router.p90"] = tail_or_zero(router_slice_ms, 0.9);
    layers["serve.slice_ms.solver.p50"] = median(solver_slice_ms);
    layers["serve.slice_ms.solver.p90"] = tail_or_zero(solver_slice_ms, 0.9);
    layers["serve.queue_wait_ms.p50"] = median(queue_wait_ms);
    layers["serve.queue_wait_ms.p90"] = tail_or_zero(queue_wait_ms, 0.9);
    layers["serve.stats_ms.p50"] = median(stats_ms);
    layers["serve.slices"] =
        slices / static_cast<double>(std::max<std::size_t>(
                     traced_makespan_s.size(), 1));
    layers["serve.gen_late_ms.max"] = gen_late_max_ms;
    layers["trace.overhead_pct"] =
        overhead_pct(e2e.all_wall_s(), traced_makespan_s);
    return;
  }
  e2e.quality = first.value_or(RoutingQuality{});
  e2e.objective_sum = e2e.quality.objective + answer_objective.value_or(0.0);
  e2e.report(out);
}

}  // namespace perfbench
