// route_tableV: Table V routing of c6-c8 with library-default options.
// route_dist: c8 in the same setting, in sharded rounds through
// SubprocessTransport.
//
// A pass routes every chip kTableVRounds rounds, one Router::run(1) per
// round (run() is split-invariant, so this is bit-identical to run(5)),
// then takes result(). The operation is one round.

#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>

#include "checks.h"
#include "dist/subprocess_transport.h"
#include "workloads.h"

namespace perfbench {

using namespace cdst;

namespace {

struct RoutePass {
  double route_s{0.0};
  RoutingQuality quality;
  std::vector<RouterResult> results;
};

/// One pass over `chips` with fresh `sessions`: rounds and result() summed
/// into route_s, each round's latency appended to `round_ms`. Checks every
/// route and counts every round. A traced pass traces `transport` (if any)
/// under each round's span.
RoutePass route_pass(const std::vector<std::unique_ptr<Chip>>& chips,
                     std::vector<std::unique_ptr<Router>>& sessions,
                     Outcome& out, Tracer* tracer, RouteRecorder* recorder,
                     std::vector<double>& round_ms,
                     std::vector<double>* result_ms,
                     CountingTransport* transport = nullptr) {
  RoutePass pass;
  RunControl control;
  control.events = recorder;
  const ScopedSpan pass_span(tracer, "pass");
  for (std::size_t c = 0; c < chips.size(); ++c) {
    const Clock::time_point t0 = Clock::now();
    for (int round = 0; round < kTableVRounds; ++round) {
      ScopedSpan round_span(tracer, "api.router_round", pass_span.id());
      if (recorder != nullptr) recorder->start_run(round_span.id());
      if (transport != nullptr) transport->set_tracer(tracer, round_span.id());
      const Clock::time_point r0 = Clock::now();
      out.op("rounds", sessions[c]->run(1, control));
      round_ms.push_back(ms_between(r0, Clock::now()));
    }
    if (transport != nullptr) transport->set_tracer(nullptr);
    const Clock::time_point t1 = Clock::now();
    ScopedSpan result_span(tracer, "api.result", pass_span.id());
    RouterResult r = sessions[c]->result();
    const Clock::time_point t2 = Clock::now();
    result_span.close();
    pass.route_s += seconds_between(t0, t2);
    if (result_ms != nullptr) result_ms->push_back(ms_between(t1, t2));
    const std::string why =
        check_all_routes(chips[c]->grid, chips[c]->netlist, r);
    out.check("route_tree", why.empty(), chips[c]->config.name + " " + why);
    pass.quality.add(*chips[c], r);
    if (tracer == nullptr) {
      std::fprintf(stderr,
                   "%s: %.3f s, WS %.1f ps, TNS %.1f ps, ACE4 %.2f%%\n",
                   chips[c]->config.name.c_str(), seconds_between(t0, t2),
                   r.timing.worst_slack, r.timing.total_negative_slack,
                   r.congestion.ace4);
    }
    pass.results.push_back(std::move(r));
  }
  return pass;
}

/// Oracle solves of one pass: every net with sinks, once per round.
double net_routes(const std::vector<std::unique_ptr<Chip>>& chips) {
  double n = 0.0;
  for (const auto& chip : chips) {
    for (const Net& net : chip->netlist.nets) n += net.sinks.empty() ? 0 : 1;
  }
  return n * kTableVRounds;
}

void route_layers(LayerFigures& layers, const RouteRecorder& rec,
                  std::size_t passes) {
  layers["route.nets_routed"] =
      static_cast<double>(rec.nets_routed) /
      static_cast<double>(std::max<std::size_t>(passes, 1));
  layers["route.batch_ms.p50"] = median(rec.batch_ms);
  layers["route.batch_ms.p90"] = tail_or_zero(rec.batch_ms, 0.9);
  layers["route.barrier_ms.p50"] = median(rec.barrier_ms);
  layers["route.shard_ms.p50"] = median(rec.shard_ms);
  layers["route.shard_imbalance"] = median(rec.shard_imbalance);
}

}  // namespace

void route_table_v(const RunConfig& cfg, Outcome& out, Tracer* tracer,
                   LayerFigures& layers) {
  ThreadPool pool(lanes());
  std::vector<std::unique_ptr<Chip>> chips;
  std::vector<std::unique_ptr<Router>> sessions;
  const auto open_sessions = [&] {
    sessions.clear();
    for (const auto& chip : chips) {
      sessions.push_back(std::make_unique<Router>(
          chip->grid, chip->netlist, table_v_options(*chip), &pool));
    }
  };
  EndToEnd e2e;
  e2e.tail_q = 0.75;
  repeat_setup(e2e, [&] {
    sessions.clear();
    chips.clear();
    for (const int number : {6, 7, 8}) chips.push_back(make_chip(number));
    open_sessions();
  });

  std::vector<double> traced_s, result_ms;
  std::optional<RoutingQuality> first;
  RouteRecorder recorder(tracer);
  bool fresh = true;  // the set-up's sessions serve the first pass
  run_passes(
      cfg,
      [&](bool traced) {
        if (!fresh) open_sessions();
        fresh = false;
        EndToEnd::Pass timed;
        const RoutePass pass = route_pass(
            chips, sessions, out, traced ? tracer : nullptr,
            traced ? &recorder : nullptr, timed.op_ms,
            traced ? &result_ms : nullptr);
        if (traced) {
          traced_s.push_back(pass.route_s);
        } else {
          timed.wall_s = pass.route_s;
          timed.solves_per_s = net_routes(chips) / pass.route_s;
          e2e.passes.push_back(std::move(timed));
        }
        if (!first) first = pass.quality;
        out.check("quality_repeats", pass.quality == *first);
      },
      [&] { return e2e.enough(); });

  if (cfg.trace) {
    route_layers(layers, recorder, traced_s.size());
    layers["api.result_ms"] = median(result_ms);
    layers["trace.overhead_pct"] = overhead_pct(e2e.all_wall_s(), traced_s);
    return;
  }
  e2e.quality = *first;
  e2e.objective_sum = first->objective;
  e2e.report(out);
}

void route_dist(const RunConfig& cfg, Outcome& out, Tracer* tracer,
                LayerFigures& layers) {
  constexpr int kShards = 8;
  ThreadPool pool(lanes());
  std::vector<std::unique_ptr<Chip>> chips;
  std::unique_ptr<dist::SubprocessTransport> transport;
  std::unique_ptr<CountingTransport> counting;
  RouterOptions opts;
  EndToEnd e2e;
  e2e.tail_q = 0.75;
  repeat_setup(e2e, [&] {
    counting.reset();
    transport.reset();  // stops and reaps the previous workers
    chips.clear();
    chips.push_back(make_chip(8));
    dist::SubprocessTransportOptions topts;
    topts.worker_path = PERFBENCH_WORKER_PATH;
    topts.workers = lanes();
    transport = std::make_unique<dist::SubprocessTransport>(topts);
    counting = std::make_unique<CountingTransport>(*transport);
    opts = table_v_options(*chips[0]);
    opts.shards = kShards;
    opts.transport = counting.get();
    // Workers spawn lazily; one round through the transport spawns them.
    Router warm(chips[0]->grid, chips[0]->netlist, opts, &pool);
    out.op("warmup_rounds", warm.run(1));
  });
  const Chip& chip = *chips[0];

  // Reference: the same sharded rounds run directly in-process, outside the
  // timed section.
  RouterOptions direct_opts = opts;
  direct_opts.transport = nullptr;
  Router direct(chip.grid, chip.netlist, direct_opts, &pool);
  out.op("reference_rounds", direct.run(kTableVRounds), kTableVRounds);
  const RouterResult reference = direct.result();

  std::vector<double> traced_s;
  std::optional<RoutingQuality> first;
  RouteRecorder recorder(tracer);
  std::vector<std::unique_ptr<Router>> sessions(1);
  run_passes(
      cfg,
      [&](bool traced) {
        sessions[0] =
            std::make_unique<Router>(chip.grid, chip.netlist, opts, &pool);
        const std::uint64_t d0 = counting->dispatches.load();
        const std::uint64_t f0 = counting->dispatch_failed.load();
        EndToEnd::Pass timed;
        const RoutePass pass =
            route_pass(chips, sessions, out, traced ? tracer : nullptr,
                       traced ? &recorder : nullptr, timed.op_ms, nullptr,
                       counting.get());
        const std::uint64_t f = counting->dispatch_failed.load() - f0;
        out.op("dispatches", Status::Ok(), counting->dispatches.load() - d0 - f);
        if (f > 0) {
          out.op("dispatches", Status::Unavailable("shard dispatch failed"), f);
        }
        if (traced) {
          traced_s.push_back(pass.route_s);
        } else {
          timed.wall_s = pass.route_s;
          timed.solves_per_s = net_routes(chips) / pass.route_s;
          e2e.passes.push_back(std::move(timed));
        }
        if (!first) first = pass.quality;
        out.check("quality_repeats", pass.quality == *first);
        const std::string why = compare_routing(pass.results[0], reference);
        out.check("dist_equals_direct", why.empty(), why);
      },
      [&] {
        if (!cfg.trace) return e2e.enough();
        const std::lock_guard<std::mutex> lock(counting->mu);
        return counting->dispatch_ms.size() >= 10 * kMinBeyond;
      });

  if (cfg.trace) {
    const std::lock_guard<std::mutex> lock(counting->mu);
    const auto passes = static_cast<double>(traced_s.size());
    route_layers(layers, recorder, traced_s.size());
    layers["dist.configure_ms"] = median(counting->configure_ms);
    layers["dist.begin_round_ms.p50"] = median(counting->begin_round_ms);
    layers["dist.dispatch_ms.p50"] = median(counting->dispatch_ms);
    layers["dist.dispatch_ms.p90"] = tail_or_zero(counting->dispatch_ms, 0.9);
    layers["dist.dispatches"] =
        static_cast<double>(counting->dispatch_ms.size()) / passes;
    layers["dist.dispatch_failed"] =
        static_cast<double>(counting->dispatch_failed.load());
    layers["dist.bytes_per_round"] =
        counting->rounds == 0 ? 0.0
                              : static_cast<double>(counting->bytes) /
                                    static_cast<double>(counting->rounds);
    layers["trace.overhead_pct"] = overhead_pct(e2e.all_wall_s(), traced_s);
    return;
  }
  e2e.quality = *first;
  e2e.objective_sum = first->objective;
  e2e.report(out);
}

}  // namespace perfbench
