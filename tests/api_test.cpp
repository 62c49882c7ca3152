// Tests for the session API (api/cdst.h): structured Status/StatusOr,
// CdSolver scratch recycling and deterministic batch solving, RunControl
// observation/cancellation, and the resumable warm-starting Router.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "api/cdst.h"
#include "grid/future_cost.h"
#include "grid/routing_grid.h"
#include "route/netlist_gen.h"
#include "route/steiner_oracle.h"
#include "test_instances.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cdst {
namespace {

using testutil::GridInstance;
using testutil::make_grid_instance;
using testutil::tiny_chip;

// ----------------------------------------------------------------- status --

TEST(Status, DefaultIsOkAndCodesRoundTrip) {
  const Status ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.code(), StatusCode::kOk);
  EXPECT_EQ(ok.to_string(), "OK");

  const Status c = Status::Cancelled("stopped");
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.code(), StatusCode::kCancelled);
  EXPECT_EQ(c.to_string(), "CANCELLED: stopped");
  EXPECT_STREQ(status_code_name(StatusCode::kInvalidArgument),
               "INVALID_ARGUMENT");
}

TEST(Status, StatusOrHoldsValueOrError) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.status().code(), StatusCode::kOk);

  StatusOr<int> e(Status::InvalidArgument("bad"));
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
  EXPECT_THROW(e.value(), ContractViolation);
}

// --------------------------------------------------------------- cd solver --

TEST(CdSolver, ScratchIsInvisibleAcrossDifferentInstances) {
  // Interleave instances of very different size/shape on ONE session: every
  // solve must match a fresh-session solve of the same instance.
  CdSolver session;
  for (const std::uint64_t seed : {3u, 4u, 5u}) {
    for (const std::size_t sinks : {2u, 9u, 17u}) {
      const auto gi =
          make_grid_instance(seed * 131, 8 + sinks % 5, 9, 3, sinks);
      SolverOptions opts;
      opts.future_cost = gi->fc.get();
      opts.seed = seed;
      session.set_options(opts);
      const StatusOr<SolveResult> warm = session.solve(gi->inst);
      CdSolver fresh(opts);
      const StatusOr<SolveResult> cold = fresh.solve(gi->inst);
      ASSERT_TRUE(warm.ok() && cold.ok());
      EXPECT_EQ(warm->tree.all_edges(), cold->tree.all_edges());
      EXPECT_DOUBLE_EQ(warm->eval.objective, cold->eval.objective);
    }
  }
}

TEST(CdSolver, BatchIsBitIdenticalAtAnyThreadCount) {
  // GridInstance is self-referential (inst points into its own vectors), so
  // hold the fixtures behind stable pointers.
  std::vector<std::unique_ptr<GridInstance>> gis;
  std::vector<CdSolver::Job> jobs;
  for (std::uint64_t s = 1; s <= 12; ++s) {
    gis.push_back(make_grid_instance(s * 71, 9, 8, 3, 2 + s % 7));
  }
  for (std::size_t i = 0; i < gis.size(); ++i) {
    CdSolver::Job job;
    job.instance = &gis[i]->inst;
    job.future_cost = gis[i]->fc.get();
    job.seed = i + 1;
    jobs.push_back(job);
  }

  // Reference: sequential solve() calls.
  std::vector<SolveResult> reference;
  {
    CdSolver solver;
    for (const CdSolver::Job& job : jobs) {
      StatusOr<SolveResult> r = solver.solve(job);
      ASSERT_TRUE(r.ok()) << r.status().to_string();
      reference.push_back(*std::move(r));
    }
  }

  for (const int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    CdSolver solver({}, &pool);
    struct JobCounter final : EventSink {
      std::size_t calls{0};
      std::size_t expected_total{0};
      void on_job(const JobEvent& e) override {
        EXPECT_EQ(e.submitted, expected_total);
        ++calls;
      }
    } counter;
    counter.expected_total = jobs.size();
    RunControl control;
    control.events = &counter;
    const StatusOr<std::vector<SolveResult>> batch =
        solver.solve_batch(std::span<const CdSolver::Job>(jobs), control);
    ASSERT_TRUE(batch.ok()) << batch.status().to_string();
    ASSERT_EQ(batch->size(), reference.size());
    EXPECT_EQ(counter.calls, jobs.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ((*batch)[i].tree.all_edges(), reference[i].tree.all_edges())
          << "instance " << i << " at " << threads << " threads";
      EXPECT_DOUBLE_EQ((*batch)[i].eval.objective,
                       reference[i].eval.objective);
      EXPECT_EQ((*batch)[i].stats.labels_settled,
                reference[i].stats.labels_settled);
    }
  }
}

TEST(CdSolver, InvalidInstanceReturnsStatusInsteadOfThrowing) {
  auto gi = make_grid_instance(21, 6, 6, 3, 2);
  gi->inst.sinks.clear();  // validate() rejects sink-less instances
  CdSolver solver;
  const StatusOr<SolveResult> r = solver.solve(gi->inst);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  // Disconnected terminals surface the same way (the legacy path threw).
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const Graph g(b);
  const std::vector<double> c{1.0, 1.0};
  const std::vector<double> d{1.0, 1.0};
  CostDistanceInstance inst;
  inst.graph = &g;
  inst.cost = &c;
  inst.delay = &d;
  inst.root = 0;
  inst.sinks = {Terminal{3, 1.0}};
  const StatusOr<SolveResult> r2 = solver.solve(inst);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);

  CdSolver::Job no_instance;
  EXPECT_EQ(solver.solve(no_instance).status().code(),
            StatusCode::kInvalidArgument);
}

/// An oracle that publishes no plane bounds.
class NoPlaneBoundsOracle final : public FutureCostOracle {
 public:
  PlaneBoundData plane_bounds() const override { return {}; }
};

TEST(CdSolver, OracleWithoutPlaneBoundsIsInvalidArgument) {
  // The solver reads every future cost through PlaneBoundData: with A* or
  // Steiner placement on, an oracle that publishes none is refused, and
  // with both off it is never read.
  const auto gi = make_grid_instance(41, 6, 6, 3, 4);
  const NoPlaneBoundsOracle oracle;
  for (const bool astar : {false, true}) {
    for (const bool placement : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "astar " << astar << ", placement " << placement);
      SolverOptions opts;
      opts.future_cost = &oracle;
      opts.use_astar = astar;
      opts.better_steiner_placement = placement;
      CdSolver solver(opts);
      const StatusOr<SolveResult> r = solver.solve(gi->inst);
      if (astar || placement) {
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
      } else {
        EXPECT_TRUE(r.ok()) << r.status().to_string();
      }
    }
  }
}

TEST(CdSolver, PreCancelledTokenShortCircuits) {
  const auto gi = make_grid_instance(31, 8, 8, 3, 5);
  CdSolver solver;
  CancelToken token;
  token.request_cancel();
  RunControl control;
  control.cancel = &token;
  const StatusOr<SolveResult> r = solver.solve(gi->inst, control);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);

  std::vector<CostDistanceInstance> instances{gi->inst};
  const auto batch = solver.solve_batch(
      std::span<const CostDistanceInstance>(instances), control);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kCancelled);
}

TEST(CdSolver, CancelMidSolveFromProgressCallback) {
  // Cancel from inside the merge-tick handler; the solver must unwind
  // cleanly (ASan run verifies leak-freedom of the abandoned search state)
  // and the session must stay usable for the next solve.
  const auto gi = make_grid_instance(41, 20, 20, 4, 40);
  SolverOptions opts;
  opts.future_cost = gi->fc.get();
  CdSolver solver(opts);
  CancelToken token;
  struct CancelAfterTwoMerges final : EventSink {
    CancelToken* token{nullptr};
    std::size_t merges_seen{0};
    void on_solve_merge(const SolveMergeEvent& e) override {
      merges_seen = e.merges_done;
      if (e.merges_done >= 2) token->request_cancel();
    }
  } sink;
  sink.token = &token;
  RunControl control;
  control.cancel = &token;
  control.events = &sink;
  control.cancel_poll_interval = 16;  // tight polling for the test
  const StatusOr<SolveResult> r = solver.solve(gi->inst, control);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_GE(sink.merges_seen, 2u);
  EXPECT_LT(sink.merges_seen, gi->inst.sinks.size())
      << "cancellation should have stopped the solve well before completion";

  // The same session finishes the instance when allowed to.
  const StatusOr<SolveResult> full = solver.solve(gi->inst);
  ASSERT_TRUE(full.ok()) << full.status().to_string();
  EXPECT_EQ(full->stats.iterations, gi->inst.sinks.size());
}

// ------------------------------------------------------------------ router --

TEST(RouterSession, WarmResumedRunsMatchOneFreshRun) {
  // run(2); run(2) must be bit-identical to run(4): seeds and multiplier
  // steps are indexed by the absolute round, and the final-round weight
  // state is preserved across the split.
  const ChipConfig c = tiny_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  RouterOptions opts;
  opts.method = SteinerMethod::kCD;
  opts.batch_size = 16;
  opts.seed = 9;

  Router split(grid, nl, opts);
  ASSERT_TRUE(split.run(2).ok());
  ASSERT_TRUE(split.run(2).ok());
  EXPECT_EQ(split.rounds_completed(), 4);

  Router fresh(grid, nl, opts);
  ASSERT_TRUE(fresh.run(4).ok());

  const RouterResult a = split.result();
  const RouterResult b = fresh.result();
  ASSERT_EQ(a.routes.size(), b.routes.size());
  for (std::size_t i = 0; i < a.routes.size(); ++i) {
    EXPECT_EQ(a.routes[i], b.routes[i]) << "net " << i;
  }
  for (std::size_t s = 0; s < a.sink_delays.size(); ++s) {
    EXPECT_DOUBLE_EQ(a.sink_delays[s], b.sink_delays[s]) << "sink " << s;
    EXPECT_DOUBLE_EQ(a.sink_weights[s], b.sink_weights[s]) << "sink " << s;
  }
}

TEST(RouterSession, SharedPoolThreadCountInvariant) {
  const ChipConfig c = tiny_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  RouterOptions opts;
  opts.method = SteinerMethod::kCD;
  opts.batch_size = 16;

  std::vector<RouterResult> results;
  for (const int threads : {1, 4}) {
    ThreadPool pool(threads);
    Router session(grid, nl, opts, &pool);
    ASSERT_TRUE(session.run(2).ok());
    results.push_back(session.result());
  }
  ASSERT_EQ(results[0].routes.size(), results[1].routes.size());
  for (std::size_t i = 0; i < results[0].routes.size(); ++i) {
    EXPECT_EQ(results[0].routes[i], results[1].routes[i]) << "net " << i;
  }
}

TEST(RouterSession, RunValidatesArguments) {
  const ChipConfig c = tiny_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  Router session(grid, nl, RouterOptions{});
  EXPECT_EQ(session.run(-1).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(session.run(0).ok());  // no-op
  EXPECT_EQ(session.rounds_completed(), 0);
}

/// Requests cancellation at the `at`-th batch boundary a run reports. That
/// batch is committed; the run stops before the next one starts.
struct CancelAtBatch final : EventSink {
  CancelToken* token{nullptr};
  std::size_t at{0};
  std::size_t batches_seen{0};
  void on_router_round(const RouterRoundEvent& e) override {
    if (e.round_complete || e.cancelled) return;
    if (++batches_seen == at) token->request_cancel();
  }
};

TEST(RouterSession, CancelMidRunLeavesCoherentResumableState) {
  const ChipConfig c = tiny_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  RouterOptions opts;
  opts.method = SteinerMethod::kCD;
  opts.batch_size = 8;

  Router session(grid, nl, opts);
  CancelToken token;
  CancelAtBatch sink;
  sink.token = &token;
  sink.at = 2;
  RunControl control;
  control.cancel = &token;
  control.events = &sink;
  const Status st = session.run(2, control);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_EQ(session.rounds_completed(), 0);

  // The snapshot is coherent (metrics computable, sizes right) even though
  // only part of the first round committed.
  const RouterResult partial = session.result();
  EXPECT_EQ(partial.routes.size(), nl.nets.size());

  // Resuming after clearing the token completes normally.
  token.reset();
  ASSERT_TRUE(session.run(2, control).ok());
  EXPECT_EQ(session.rounds_completed(), 2);
  const RouterResult full = session.result();
  EXPECT_GT(full.wires.wirelength_gcells, 0.0);
}

/// Table V's c4 at scale 0.001 (305 nets), routed with the CD oracle at
/// dbif 4 and the default batch size: a round spans seven 48-net batches.
struct C4Fixture {
  ChipConfig config = paper_chip_configs(0.001)[3];
  RoutingGrid grid = make_chip_grid(config);
  Netlist netlist = generate_netlist(config, grid);
  RouterOptions options = [] {
    RouterOptions o;
    o.method = SteinerMethod::kCD;
    o.oracle.dbif = 4.0;
    o.threads = 2;
    return o;
  }();
};

/// Runs `session` toward `rounds` more rounds, cancelled at the `at`-th
/// batch boundary it reports.
Status run_cancelled_at_batch(Router& session, int rounds, std::size_t at) {
  CancelToken token;
  CancelAtBatch sink;
  sink.token = &token;
  sink.at = at;
  RunControl control;
  control.cancel = &token;
  control.events = &sink;
  return session.run(rounds, control);
}

TEST(RouterSession, CancelAtBatchBoundaryResumesBitIdentically) {
  // A cancelled batched round keeps its committed batches and resumes at
  // the first uncommitted one, so the interrupted run ends exactly where
  // an uninterrupted one does.
  const C4Fixture f;
  ASSERT_EQ(f.options.batch_size, 48);
  Router ref(f.grid, f.netlist, f.options);
  ASSERT_TRUE(ref.run(3).ok());

  // Round 0 reports 7 batch boundaries, so the 10th is inside round 1.
  Router session(f.grid, f.netlist, f.options);
  ASSERT_EQ(run_cancelled_at_batch(session, 3, 10).code(),
            StatusCode::kCancelled);
  ASSERT_EQ(session.rounds_completed(), 1);
  ASSERT_TRUE(session.run(2).ok());
  EXPECT_EQ(session.rounds_completed(), 3);
  testutil::expect_same_routing(session.result(), ref.result());
}

TEST(RouterSession, CancelAtBatchBoundaryCheckpointRestoresBitIdentically) {
  // The checkpoint of a session stopped inside a round records the round
  // cursor; a fresh session restored from its bytes finishes the round
  // there and matches the uninterrupted run.
  const C4Fixture f;
  Router ref(f.grid, f.netlist, f.options);
  ASSERT_TRUE(ref.run(3).ok());

  Router victim(f.grid, f.netlist, f.options);
  ASSERT_EQ(run_cancelled_at_batch(victim, 3, 10).code(),
            StatusCode::kCancelled);
  const StatusOr<RouterCheckpoint> cp =
      RouterCheckpoint::from_bytes(victim.checkpoint().to_bytes());
  ASSERT_TRUE(cp.ok()) << cp.status().to_string();
  EXPECT_EQ(cp->rounds_done, 1);
  EXPECT_EQ(cp->weights_round, 1) << "round 1's multiplier step is taken";
  // Round 0 reported 7 batch boundaries, so round 1 committed 3 batches.
  EXPECT_EQ(cp->round_cursor, 3u * 48u);

  // A sharded session cannot finish a batched round: refused, unchanged.
  RouterOptions sharded = f.options;
  sharded.shards = 4;
  Router wrong(f.grid, f.netlist, sharded);
  EXPECT_EQ(wrong.restore(*cp).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(wrong.rounds_completed(), 0);
  EXPECT_EQ(wrong.checkpoint().round_cursor, 0u);

  Router resumed(f.grid, f.netlist, f.options);
  ASSERT_TRUE(resumed.restore(*cp).ok());
  EXPECT_EQ(resumed.rounds_completed(), 1);
  EXPECT_EQ(resumed.checkpoint().round_cursor, cp->round_cursor);
  ASSERT_TRUE(resumed.run(2).ok());
  EXPECT_EQ(resumed.checkpoint().round_cursor, 0u);
  testutil::expect_same_routing(resumed.result(), ref.result());
}

TEST(RouterSession, SetOptionsInsideARoundRefusesOnlyADisciplineSwitch) {
  const ChipConfig c = tiny_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  RouterOptions opts;
  opts.method = SteinerMethod::kCD;
  opts.batch_size = 8;

  Router session(grid, nl, opts);
  ASSERT_EQ(run_cancelled_at_batch(session, 1, 2).code(),
            StatusCode::kCancelled);
  ASSERT_EQ(session.checkpoint().round_cursor, 16u);

  // Batched -> sharded inside a round is refused and changes nothing.
  RouterOptions sharded = opts;
  sharded.shards = 4;
  EXPECT_EQ(session.set_options(sharded).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.options().shards, 0);
  EXPECT_EQ(session.checkpoint().round_cursor, 16u);

  // Any other change applies to the rest of the round.
  RouterOptions smaller = opts;
  smaller.batch_size = 5;
  ASSERT_TRUE(session.set_options(smaller).ok());
  ASSERT_TRUE(session.run(1).ok());
  EXPECT_EQ(session.rounds_completed(), 1);
  EXPECT_EQ(session.checkpoint().round_cursor, 0u);

  // At a round barrier the discipline may change again.
  ASSERT_TRUE(session.set_options(sharded).ok());
  ASSERT_TRUE(session.run(1).ok());
  EXPECT_EQ(session.rounds_completed(), 2);
}

TEST(RouterSession, SetOptionsReroutesWarmFromConvergedState) {
  const ChipConfig c = tiny_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  RouterOptions opts;
  opts.method = SteinerMethod::kCD;

  Router session(grid, nl, opts);
  ASSERT_TRUE(session.run(2).ok());
  const std::vector<double> warm_weights = session.sink_weights();

  RouterOptions changed = opts;
  changed.oracle.dbif = 3.0;  // option change: re-route warm
  ASSERT_TRUE(session.set_options(changed).ok());
  EXPECT_EQ(session.sink_weights(), warm_weights)
      << "option changes must keep the Lagrange multipliers";
  ASSERT_TRUE(session.run(1).ok());
  EXPECT_EQ(session.rounds_completed(), 3);
  const RouterResult r = session.result();
  EXPECT_EQ(r.routes.size(), nl.nets.size());
  EXPECT_GT(r.wires.wirelength_gcells, 0.0);

  RouterOptions bad = changed;
  bad.batch_size = 0;
  EXPECT_EQ(session.set_options(bad).code(), StatusCode::kInvalidArgument);
}

TEST(RouterSession, ConstructorRejectsWhatSetOptionsRejects) {
  // A session built directly with options set_options() refuses routes
  // nothing: run() and step() report kInvalidArgument until valid
  // options are installed.
  const ChipConfig c = tiny_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  RouterOptions zero_batch;
  zero_batch.batch_size = 0;
  RouterOptions negative_shards;
  negative_shards.shards = -1;
  for (const RouterOptions& bad : {zero_batch, negative_shards}) {
    SCOPED_TRACE(testing::Message() << "batch_size=" << bad.batch_size
                                    << " shards=" << bad.shards);
    Router session(grid, nl, bad);
    EXPECT_EQ(session.run(1).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(session.step(1).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(session.rounds_completed(), 0);
    EXPECT_TRUE(session.result().routes[0].empty()) << "nothing was routed";

    ASSERT_TRUE(session.set_options(RouterOptions{}).ok());
    EXPECT_TRUE(session.run(1).ok());
    EXPECT_EQ(session.rounds_completed(), 1);
  }
}

// -------------------------------------------------------------- event sinks --

namespace {

/// Records every event; the tests below assert ordering guarantees.
struct RecordingSink final : EventSink {
  std::vector<SolveMergeEvent> merges;
  std::vector<JobEvent> jobs;
  std::vector<RouterShardEvent> shards;
  std::vector<RouterRoundEvent> rounds;
  void on_solve_merge(const SolveMergeEvent& e) override {
    merges.push_back(e);
  }
  void on_job(const JobEvent& e) override { jobs.push_back(e); }
  void on_router_shard(const RouterShardEvent& e) override {
    shards.push_back(e);
  }
  void on_router_round(const RouterRoundEvent& e) override {
    rounds.push_back(e);
  }
};

}  // namespace

TEST(EventSink, SolveEmitsTypedMergeTicks) {
  const auto gi = make_grid_instance(51, 10, 10, 3, 9);
  SolverOptions opts;
  opts.future_cost = gi->fc.get();
  CdSolver solver(opts);
  RecordingSink sink;
  RunControl control;
  control.events = &sink;
  ASSERT_TRUE(solver.solve(gi->inst, control).ok());
  ASSERT_EQ(sink.merges.size(), gi->inst.sinks.size())
      << "one merge tick per sink";
  for (std::size_t i = 0; i < sink.merges.size(); ++i) {
    EXPECT_EQ(sink.merges[i].merges_done, i + 1);
    EXPECT_EQ(sink.merges[i].merges_total, gi->inst.sinks.size());
    if (i > 0) {
      EXPECT_GE(sink.merges[i].labels_settled,
                sink.merges[i - 1].labels_settled);
    }
  }
}

TEST(EventSink, BatchEmitsOneJobCompletionPerJob) {
  std::vector<std::unique_ptr<GridInstance>> gis;
  std::vector<CdSolver::Job> jobs;
  for (std::uint64_t s = 1; s <= 8; ++s) {
    gis.push_back(make_grid_instance(s * 31, 8, 8, 3, 3));
    CdSolver::Job job;
    job.instance = &gis.back()->inst;
    job.future_cost = gis.back()->fc.get();
    jobs.push_back(job);
  }
  ThreadPool pool(4);
  CdSolver solver({}, &pool);
  RecordingSink sink;
  RunControl control;
  control.events = &sink;
  ASSERT_TRUE(
      solver.solve_batch(std::span<const CdSolver::Job>(jobs), control).ok());
  ASSERT_EQ(sink.jobs.size(), jobs.size());
  std::set<std::size_t> seen;
  for (std::size_t i = 0; i < sink.jobs.size(); ++i) {
    EXPECT_EQ(sink.jobs[i].completed, i + 1) << "strictly monotonic count";
    EXPECT_EQ(sink.jobs[i].submitted, jobs.size());
    EXPECT_EQ(sink.jobs[i].status, StatusCode::kOk);
    seen.insert(sink.jobs[i].index);
  }
  EXPECT_EQ(seen.size(), jobs.size()) << "each index completes exactly once";
}

TEST(EventSink, RouterRoundsCarryCongestionAtTheBarrier) {
  const ChipConfig c = tiny_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  RouterOptions opts;
  opts.method = SteinerMethod::kCD;
  opts.batch_size = 16;

  Router session(grid, nl, opts);
  RecordingSink sink;
  RunControl control;
  control.events = &sink;
  ASSERT_TRUE(session.run(2, control).ok());

  std::size_t completes = 0;
  int last_complete_round = -1;
  for (const RouterRoundEvent& e : sink.rounds) {
    EXPECT_EQ(e.nets_total, nl.nets.size());
    EXPECT_EQ(e.target_round, 2);
    EXPECT_FALSE(e.cancelled);
    if (e.round_complete) {
      EXPECT_EQ(e.nets_done, nl.nets.size());
      EXPECT_GE(e.ace4, 0.0) << "barrier events carry congestion stats";
      EXPECT_EQ(e.round, ++last_complete_round);
      ++completes;
    } else {
      EXPECT_LT(e.ace4, 0.0) << "mid-round events carry no congestion";
      EXPECT_EQ(e.round, last_complete_round + 1)
          << "no round r+1 event before round r completed";
    }
  }
  EXPECT_EQ(completes, 2u) << "one round_complete per round";
}

TEST(EventSink, ShardedRoundsEmitShardBoundariesWithTiles) {
  const ChipConfig c = tiny_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  RouterOptions opts;
  opts.method = SteinerMethod::kCD;
  opts.shards = 4;

  Router session(grid, nl, opts);
  RecordingSink sink;
  RunControl control;
  control.events = &sink;
  ASSERT_TRUE(session.run(1, control).ok());

  ASSERT_EQ(sink.shards.size(), 4u) << "one event per shard";
  std::size_t nets_covered = 0;
  std::size_t last_done = 0;
  std::set<std::pair<int, int>> tiles;
  for (const RouterShardEvent& e : sink.shards) {
    EXPECT_EQ(e.round, 0);
    EXPECT_EQ(e.shards, 4);
    EXPECT_EQ(e.nets_total, nl.nets.size());
    EXPECT_GE(e.nets_done, last_done) << "monotonic progress";
    last_done = e.nets_done;
    nets_covered += e.shard_nets;
    tiles.insert({e.tile_x, e.tile_y});
  }
  EXPECT_EQ(nets_covered, nl.nets.size()) << "shards partition the netlist";
  EXPECT_EQ(tiles.size(), 4u) << "each shard reports a distinct tile";
  ASSERT_EQ(sink.rounds.size(), 1u);
  EXPECT_TRUE(sink.rounds[0].round_complete);
  EXPECT_GE(sink.rounds[0].ace4, 0.0);
}

TEST(EventSink, CancelledRunEmitsFinalRoundSummary) {
  const ChipConfig c = tiny_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  RouterOptions opts;
  opts.method = SteinerMethod::kCD;
  opts.batch_size = 8;

  // Cancel from inside the sink after the second batch boundary; the run
  // must still deliver one final cancelled round summary naming the round
  // the unwind stopped at, with congestion of the state the session kept.
  struct CancellingSink final : EventSink {
    CancelToken* token{nullptr};
    std::size_t boundaries{0};
    std::vector<RouterRoundEvent> summaries;
    void on_router_round(const RouterRoundEvent& e) override {
      if (e.cancelled) {
        summaries.push_back(e);
        return;
      }
      if (++boundaries == 2) token->request_cancel();
    }
  } sink;
  CancelToken token;
  sink.token = &token;
  RunControl control;
  control.cancel = &token;
  control.events = &sink;

  Router session(grid, nl, opts);
  const Status st = session.run(2, control);
  ASSERT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_EQ(session.rounds_completed(), 0);
  ASSERT_EQ(sink.summaries.size(), 1u)
      << "exactly one cancelled round summary";
  const RouterRoundEvent& summary = sink.summaries.back();
  EXPECT_EQ(summary.round, 0) << "the round the unwind stopped at";
  EXPECT_EQ(summary.nets_total, nl.nets.size());
  EXPECT_EQ(summary.nets_done, 16u)
      << "two committed batches of 8 nets survive the rollback";
  EXPECT_GE(summary.ace4, 0.0);

  // A sharded session reports the same way (pre-cancelled: round 1 is the
  // one that never started committing).
  RouterOptions sharded = opts;
  sharded.shards = 4;
  Router session2(grid, nl, sharded);
  ASSERT_TRUE(session2.run(1).ok());
  sink.summaries.clear();
  token.reset();
  token.request_cancel();
  ASSERT_EQ(session2.run(1, control).code(), StatusCode::kCancelled);
  ASSERT_EQ(sink.summaries.size(), 1u);
  EXPECT_EQ(sink.summaries.back().round, 1);
  EXPECT_EQ(sink.summaries.back().nets_done, 0u);
}

// ---------------------------------------------------------------- movability --

TEST(OracleInstanceApi, MoveKeepsSelfReferencesValid) {
  const ChipConfig c = tiny_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  CongestionCosts costs(grid);
  const Net* net = nullptr;
  for (const Net& n : nl.nets) {
    if (n.sinks.size() >= 3) {
      net = &n;
      break;
    }
  }
  ASSERT_NE(net, nullptr);
  const std::vector<double> weights(net->sinks.size(), 0.5);
  OracleParams params;
  params.dbif = 2.0;

  OracleInstance original(grid, costs, *net, weights, params);
  const OracleOutcome before = run_method(original, SteinerMethod::kCD,
                                          params);

  // Move through a growing vector (reallocation moves the elements again).
  std::vector<OracleInstance> held;
  held.push_back(std::move(original));
  for (int i = 0; i < 3; ++i) {
    held.push_back(OracleInstance(grid, costs, *net, weights, params));
  }
  OracleInstance& moved = held.front();
  EXPECT_EQ(moved.instance().box, &moved.window().box_graph())
      << "moved instance must still point at its own window";
  EXPECT_EQ(moved.instance().prices.price.data(),
            moved.window().prices().price.data());
  EXPECT_EQ(moved.instance().prices.unit.data(),
            moved.window().prices().unit.data());
  const OracleOutcome after = run_method(moved, SteinerMethod::kCD, params);
  EXPECT_EQ(after.grid_edges, before.grid_edges);
  EXPECT_DOUBLE_EQ(after.eval.objective, before.eval.objective);
}

}  // namespace
}  // namespace cdst
