// Tests for the multi-tenant serving core (serve/serve.h) and the
// Router::step slice it interleaves.
//
// The load-bearing claims, each verified here:
//  - Router::step slicing is bit-identical to a single run() at any thread
//    / shard count (it inherits run()'s split-run invariance); a batched
//    round spans several slices, a sharded round is one, and
//    rounds_completed() rises only at round barriers.
//  - A serve schedule commits, per tenant, exactly what a serial run
//    would: the tenants x threads x shards matrix compares every tenant's
//    result against a standalone reference (the ISSUE-10 acceptance
//    matrix), and the shared-budget peak stays within the admission limit.
//  - Deadlines pause a tenant cleanly mid-schedule and the session resumes
//    bit-identically; cancelling one tenant never perturbs another.
//  - Admission rejects over-capacity opens with typed kResourceExhausted
//    and the registry stays consistent.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "api/router.h"
#include "route/netlist_gen.h"
#include "serve/admission.h"
#include "serve/scheduler.h"
#include "serve/serve.h"
#include "stress.h"
#include "test_instances.h"

namespace cdst {
namespace {

using serve::AdmissionController;
using serve::AdmissionLimits;
using serve::EngineServer;
using serve::FairScheduler;
using serve::ServeOptions;
using serve::ServeStats;
using serve::SessionId;
using serve::SessionKind;
using serve::TenantOptions;
using testutil::expect_same;
using testutil::expect_same_routing;
using testutil::make_grid_instance;
using testutil::stress_light;

/// Nets per tenant chip, and the batch size of batched (shards == 0)
/// tenants: every batched round spans three slices, so tenants interleave
/// inside rounds.
constexpr int kTenantNets = 24;
constexpr int kTenantBatch = 8;

/// Per-tenant chip: same small fabric, different netlist per seed so
/// tenants are distinguishable workloads.
ChipConfig tenant_chip(std::uint64_t seed) {
  ChipConfig c;
  c.name = "serve-" + std::to_string(seed);
  c.num_nets = kTenantNets;
  c.num_layers = 3;
  c.nx = c.ny = 12;
  c.capacity = 8.0;
  c.seed = seed;
  return c;
}

RouterOptions serve_router_options(int threads, int shards) {
  RouterOptions opts;
  opts.method = SteinerMethod::kCD;
  opts.seed = 5;
  opts.threads = threads;
  opts.shards = shards;
  if (shards == 0) opts.batch_size = kTenantBatch;
  return opts;
}

/// Router::step() slices per round: one per batch, one per sharded
/// round.
int slices_per_round(int shards) {
  return shards == 0 ? kTenantNets / kTenantBatch : 1;
}

// ------------------------------------------------------------ FairScheduler

TEST(FairScheduler, DeficitRoundRobinHonorsWeights) {
  FairScheduler sched;
  sched.add(1, 2);
  sched.add(2, 1);
  sched.add(3, 1);
  sched.set_runnable(1, true);
  sched.set_runnable(2, true);
  sched.set_runnable(3, true);

  // One full cycle: weight-2 tenant gets two consecutive slices.
  std::vector<SessionId> picks;
  for (int i = 0; i < 8; ++i) picks.push_back(sched.pick().value());
  const std::vector<SessionId> want = {1, 1, 2, 3, 1, 1, 2, 3};
  EXPECT_EQ(picks, want);
}

TEST(FairScheduler, SkipsNotRunnableAndDrainsToNullopt) {
  FairScheduler sched;
  sched.add(1, 1);
  sched.add(2, 1);
  sched.set_runnable(2, true);
  EXPECT_EQ(sched.pick(), SessionId{2});
  sched.set_runnable(2, false);
  EXPECT_EQ(sched.pick(), std::nullopt);
  EXPECT_EQ(sched.runnable_count(), 0u);

  sched.remove(2);
  sched.set_runnable(1, true);
  EXPECT_EQ(sched.pick(), SessionId{1});
  sched.remove(1);
  EXPECT_EQ(sched.pick(), std::nullopt);
  EXPECT_EQ(sched.size(), 0u);
}

// ------------------------------------------------------ AdmissionController

TEST(AdmissionController, EnforcesDepthAndBudget) {
  AdmissionController adm(AdmissionLimits{2, 1000});
  EXPECT_TRUE(adm.admit(600).ok());
  const Status over_budget = adm.admit(600);
  EXPECT_EQ(over_budget.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(adm.admit(100).ok());
  const Status over_depth = adm.admit(0);
  EXPECT_EQ(over_depth.code(), StatusCode::kResourceExhausted);

  EXPECT_EQ(adm.sessions(), 2u);
  EXPECT_EQ(adm.projected_bytes(), 700u);
  EXPECT_EQ(adm.admitted_total(), 2u);
  EXPECT_EQ(adm.rejected_total(), 2u);

  adm.release(600);
  EXPECT_EQ(adm.sessions(), 1u);
  EXPECT_EQ(adm.projected_bytes(), 100u);
  EXPECT_TRUE(adm.admit(900).ok());
}

// ------------------------------------------------------------ Router::step

/// Records what one slice emits: round events (batch boundaries, barriers,
/// cancelled summaries) and shard boundaries.
struct SliceRecorder final : EventSink {
  std::vector<RouterRoundEvent> rounds;
  std::vector<RouterShardEvent> shards;
  void on_router_round(const RouterRoundEvent& event) override {
    rounds.push_back(event);
  }
  void on_router_shard(const RouterShardEvent& event) override {
    shards.push_back(event);
  }
};

TEST(RouterStep, SlicesAreBitIdenticalToSerialRunAcrossThreadsAndShards) {
  const int rounds = 3;
  const std::vector<int> thread_counts =
      stress_light() ? std::vector<int>{2} : std::vector<int>{1, 2, 4};
  const std::vector<int> shard_counts = {0, 1, 4};
  const ChipConfig c = tenant_chip(7);
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);

  for (const int threads : thread_counts) {
    for (const int shards : shard_counts) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " shards=" << shards);
      const RouterOptions opts = serve_router_options(threads, shards);
      Router ref(grid, nl, opts);
      ASSERT_TRUE(ref.run(rounds).ok());
      const RouterResult want = ref.result();

      // Step toward the same target, one slice per call, passing the rounds
      // still pending as a scheduler does.
      Router session(grid, nl, opts);
      EXPECT_TRUE(session.step(0).ok());
      EXPECT_EQ(session.rounds_completed(), 0);
      int steps = 0;
      int barrier_events = 0;
      while (session.rounds_completed() < rounds) {
        const int done = session.rounds_completed();
        SliceRecorder recorder;
        RunControl control;
        control.events = &recorder;
        ASSERT_TRUE(session.step(rounds - done, control).ok());
        ++steps;
        int barriers = 0;
        for (const RouterRoundEvent& event : recorder.rounds) {
          EXPECT_FALSE(event.cancelled);
          EXPECT_EQ(event.round, done);
          // The slice reports the absolute target of run(rounds - done).
          EXPECT_EQ(event.target_round, rounds);
          if (event.round_complete) ++barriers;
        }
        for (const RouterShardEvent& event : recorder.shards) {
          EXPECT_EQ(event.target_round, rounds);
        }
        // A slice commits one unit of work: a batch emits one batch event,
        // a sharded round one event per shard.
        EXPECT_EQ(recorder.rounds.size() - static_cast<std::size_t>(barriers),
                  shards == 0 ? 1u : 0u);
        EXPECT_EQ(recorder.shards.size(),
                  shards == 0 ? 0u : static_cast<std::size_t>(shards));
        // A slice passes at most one barrier, and only a barrier counts a
        // round off.
        EXPECT_LE(barriers, 1);
        EXPECT_EQ(session.rounds_completed(), done + barriers);
        barrier_events += barriers;
      }
      EXPECT_EQ(steps, rounds * slices_per_round(shards));
      EXPECT_EQ(barrier_events, rounds);
      expect_same_routing(session.result(), want);
    }
  }
}

TEST(RouterStep, DeadlinePausesSliceResumableWithNewDeadline) {
  const ChipConfig c = tenant_chip(7);
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  const RouterOptions opts = serve_router_options(2, 4);

  Router ref(grid, nl, opts);
  ASSERT_TRUE(ref.run(2).ok());
  const RouterResult want = ref.result();

  Router session(grid, nl, opts);
  RunControl control;
  control.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  EXPECT_EQ(session.step(2, control).code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(session.rounds_completed(), 0);

  control.deadline = std::nullopt;
  while (session.rounds_completed() < 2) {
    ASSERT_TRUE(session.step(2 - session.rounds_completed(), control).ok());
  }
  expect_same_routing(session.result(), want);
}

// -------------------------------------------------------------- EngineServer

/// Runs every tenant serially in its own standalone Router and returns the
/// reference results.
std::vector<RouterResult> serial_references(
    const std::vector<const RoutingGrid*>& grids,
    const std::vector<const Netlist*>& netlists, const RouterOptions& opts,
    int rounds) {
  std::vector<RouterResult> results;
  for (std::size_t i = 0; i < grids.size(); ++i) {
    Router ref(*grids[i], *netlists[i], opts);
    EXPECT_TRUE(ref.run(rounds).ok());
    results.push_back(ref.result());
  }
  return results;
}

TEST(EngineServer, MultiTenantMatrixBitIdenticalToSerialWithinBudget) {
  const int rounds = 3;
  const std::vector<int> thread_counts =
      stress_light() ? std::vector<int>{2} : std::vector<int>{1, 2, 4};
  const std::vector<int> shard_counts =
      stress_light() ? std::vector<int>{0, 4} : std::vector<int>{0, 1, 4};
  const std::vector<int> tenant_counts =
      stress_light() ? std::vector<int>{2} : std::vector<int>{2, 4};

  // Tenants' chips built once, reused across the matrix.
  std::vector<std::unique_ptr<RoutingGrid>> grids;
  std::vector<std::unique_ptr<Netlist>> netlists;
  for (int t = 0; t < 4; ++t) {
    const ChipConfig c = tenant_chip(11 + static_cast<std::uint64_t>(t));
    grids.push_back(std::make_unique<RoutingGrid>(make_chip_grid(c)));
    netlists.push_back(
        std::make_unique<Netlist>(generate_netlist(c, *grids.back())));
  }

  for (const int threads : thread_counts) {
    for (const int shards : shard_counts) {
      const RouterOptions opts = serve_router_options(threads, shards);
      for (const int tenants : tenant_counts) {
        std::vector<const RoutingGrid*> grid_ptrs;
        std::vector<const Netlist*> nl_ptrs;
        for (int t = 0; t < tenants; ++t) {
          grid_ptrs.push_back(grids[static_cast<std::size_t>(t)].get());
          nl_ptrs.push_back(netlists[static_cast<std::size_t>(t)].get());
        }
        const std::vector<RouterResult> want =
            serial_references(grid_ptrs, nl_ptrs, opts, rounds);

        Engine engine(EngineOptions{threads, 64u << 20});
        ServeOptions serve_opts;
        serve_opts.admission_budget_bytes = 64u << 20;
        EngineServer server(engine, serve_opts);

        std::vector<SessionId> ids;
        for (int t = 0; t < tenants; ++t) {
          TenantOptions tenant;
          tenant.name = "tenant-" + std::to_string(t);
          tenant.weight = 1 + t % 2;  // mixed weights
          tenant.projected_dense_bytes = 1u << 20;
          const StatusOr<SessionId> id = server.open_router_session(
              *grid_ptrs[static_cast<std::size_t>(t)],
              *nl_ptrs[static_cast<std::size_t>(t)], opts, tenant);
          ASSERT_TRUE(id.ok()) << id.status().to_string();
          ids.push_back(id.value());
          ASSERT_TRUE(server.submit_rounds(id.value(), rounds).ok());
        }

        ASSERT_TRUE(server.run_until_idle().ok())
            << "threads=" << threads << " shards=" << shards
            << " tenants=" << tenants;

        const ServeStats stats = server.stats();
        EXPECT_EQ(stats.sessions_open, static_cast<std::size_t>(tenants));
        EXPECT_EQ(stats.queue_depth, 0u);
        EXPECT_EQ(stats.slices_total,
                  static_cast<std::size_t>(tenants * rounds *
                                           slices_per_round(shards)));
        // The acceptance bound: actual shared-budget reservations never
        // exceeded the configured admission limit.
        EXPECT_GT(stats.budget_peak_bytes, 0);
        EXPECT_LE(static_cast<std::size_t>(stats.budget_peak_bytes),
                  stats.admission_budget_bytes);
        EXPECT_GE(stats.worst_ace4, 0.0);

        for (int t = 0; t < tenants; ++t) {
          const StatusOr<RouterResult> got =
              server.result(ids[static_cast<std::size_t>(t)]);
          ASSERT_TRUE(got.ok());
          expect_same_routing(got.value(),
                              want[static_cast<std::size_t>(t)]);
        }
      }
    }
  }
}

TEST(EngineServer, TenantEventsCarryTheSubmittedTargetRound) {
  // The server steps each slice toward every pending round, so a tenant's
  // sink sees the absolute target on batch, barrier and shard events alike.
  const int rounds = 3;
  const ChipConfig c = tenant_chip(81);
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  for (const int shards : {0, 4}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    Engine engine(EngineOptions{2, 64u << 20});
    EngineServer server(engine, {});
    SliceRecorder recorder;
    TenantOptions tenant;
    tenant.events = &recorder;
    const SessionId id =
        server
            .open_router_session(grid, nl, serve_router_options(2, shards),
                                 tenant)
            .value();
    ASSERT_TRUE(server.submit_rounds(id, rounds).ok());
    ASSERT_TRUE(server.run_until_idle().ok());

    std::size_t batches = 0;
    int barriers = 0;
    for (const RouterRoundEvent& event : recorder.rounds) {
      EXPECT_EQ(event.target_round, rounds);
      if (event.round_complete) {
        ++barriers;
      } else {
        ++batches;
      }
    }
    for (const RouterShardEvent& event : recorder.shards) {
      EXPECT_EQ(event.target_round, rounds);
    }
    EXPECT_EQ(barriers, rounds);
    EXPECT_EQ(batches, shards == 0 ? static_cast<std::size_t>(
                                         rounds * slices_per_round(0))
                                   : 0u);
    EXPECT_EQ(recorder.shards.size(),
              static_cast<std::size_t>(rounds * shards));
  }
}

TEST(EngineServer, DeadlineExpiresCleanlyMidScheduleAndSessionResumes) {
  const int rounds = 2;
  const RouterOptions opts = serve_router_options(2, 4);
  const ChipConfig ca = tenant_chip(31);
  const ChipConfig cb = tenant_chip(32);
  const RoutingGrid grid_a = make_chip_grid(ca);
  const RoutingGrid grid_b = make_chip_grid(cb);
  const Netlist nl_a = generate_netlist(ca, grid_a);
  const Netlist nl_b = generate_netlist(cb, grid_b);

  Router ref_a(grid_a, nl_a, opts);
  ASSERT_TRUE(ref_a.run(rounds).ok());
  Router ref_b(grid_b, nl_b, opts);
  ASSERT_TRUE(ref_b.run(rounds).ok());

  Engine engine(EngineOptions{2, 64u << 20});
  EngineServer server(engine, {});
  const SessionId a =
      server.open_router_session(grid_a, nl_a, opts).value();
  TenantOptions expired_tenant;
  expired_tenant.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  const SessionId b =
      server.open_router_session(grid_b, nl_b, opts, expired_tenant).value();
  ASSERT_TRUE(server.submit_rounds(a, rounds).ok());
  ASSERT_TRUE(server.submit_rounds(b, rounds).ok());

  // The expired tenant yields at its first slice; the other completes.
  ASSERT_TRUE(server.run_until_idle().ok());
  EXPECT_EQ(server.session_status(b).code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(server.session_status(a).ok());
  expect_same_routing(server.result(a).value(), ref_a.result());

  const ServeStats mid = server.stats();
  EXPECT_GE(mid.deadline_expirations, 1u);
  const auto& tb = mid.tenants[1];
  EXPECT_EQ(tb.last_status, StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(tb.runnable);
  EXPECT_EQ(tb.rounds_completed, 0);

  // Clear the deadline and resume: the paused session finishes
  // bit-identically to one that was never interrupted.
  ASSERT_TRUE(server.set_deadline(b, std::nullopt).ok());
  ASSERT_TRUE(server.resume(b).ok());
  ASSERT_TRUE(server.run_until_idle().ok());
  expect_same_routing(server.result(b).value(), ref_b.result());
}

TEST(EngineServer, CancellingOneTenantNeverPerturbsAnother) {
  const int rounds = 3;
  const ChipConfig ca = tenant_chip(41);
  const ChipConfig cb = tenant_chip(42);
  const RoutingGrid grid_a = make_chip_grid(ca);
  const RoutingGrid grid_b = make_chip_grid(cb);
  const Netlist nl_a = generate_netlist(ca, grid_a);
  const Netlist nl_b = generate_netlist(cb, grid_b);

  // Sharded tenants stop at a round barrier; batched ones stop inside a
  // round, after their first batch.
  for (const int shards : {0, 4}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    const RouterOptions opts = serve_router_options(2, shards);
    Router ref_a(grid_a, nl_a, opts);
    ASSERT_TRUE(ref_a.run(rounds).ok());
    Router ref_b(grid_b, nl_b, opts);
    ASSERT_TRUE(ref_b.run(rounds).ok());

    Engine engine(EngineOptions{2, 64u << 20});
    EngineServer server(engine, {});
    const SessionId a =
        server.open_router_session(grid_a, nl_a, opts).value();
    const SessionId b =
        server.open_router_session(grid_b, nl_b, opts).value();
    ASSERT_TRUE(server.submit_rounds(a, rounds).ok());
    ASSERT_TRUE(server.submit_rounds(b, rounds).ok());

    // Let each tenant get one slice, then cancel b mid-schedule.
    ASSERT_TRUE(server.step());
    ASSERT_TRUE(server.step());
    ASSERT_TRUE(server.cancel(b).ok());
    ASSERT_TRUE(server.run_until_idle().ok());

    EXPECT_TRUE(server.session_status(a).ok());
    EXPECT_EQ(server.session_status(b).code(), StatusCode::kCancelled);
    // The unperturbed tenant is bit-identical to its serial run...
    expect_same_routing(server.result(a).value(), ref_a.result());
    // ...and the cancelled one resumes to the same end state.
    ASSERT_TRUE(server.resume(b).ok());
    ASSERT_TRUE(server.run_until_idle().ok());
    expect_same_routing(server.result(b).value(), ref_b.result());
  }
}

TEST(EngineServer, AdmissionRejectsDepthAndBudgetWithTypedStatus) {
  const RouterOptions opts = serve_router_options(1, 0);
  const ChipConfig c = tenant_chip(51);
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);

  Engine engine(EngineOptions{1, 64u << 20});
  ServeOptions serve_opts;
  serve_opts.max_sessions = 1;
  serve_opts.admission_budget_bytes = 1u << 20;
  EngineServer server(engine, serve_opts);

  TenantOptions big;
  big.projected_dense_bytes = 2u << 20;
  const StatusOr<SessionId> over_budget =
      server.open_router_session(grid, nl, opts, big);
  ASSERT_FALSE(over_budget.ok());
  EXPECT_EQ(over_budget.status().code(), StatusCode::kResourceExhausted);

  TenantOptions fits;
  fits.projected_dense_bytes = 1u << 20;
  const StatusOr<SessionId> first =
      server.open_router_session(grid, nl, opts, fits);
  ASSERT_TRUE(first.ok());
  const StatusOr<SessionId> over_depth =
      server.open_solver_session(SolverOptions{}, TenantOptions{});
  ASSERT_FALSE(over_depth.ok());
  EXPECT_EQ(over_depth.status().code(), StatusCode::kResourceExhausted);

  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.rejected_total, 2u);
  EXPECT_EQ(stats.sessions_open, 1u);
  EXPECT_EQ(stats.projected_bytes, 1u << 20);

  // Closing frees both the depth slot and the projection: the same tenant
  // shape that was just refused on depth now fits again.
  ASSERT_TRUE(server.close(first.value()).ok());
  EXPECT_TRUE(server.open_router_session(grid, nl, opts, fits).ok());
}

TEST(EngineServer, SolverSessionsInterleaveWithRoutersBitIdentically) {
  const int rounds = 2;
  const RouterOptions opts = serve_router_options(2, 4);
  const ChipConfig c = tenant_chip(61);
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  const std::size_t num_jobs = stress_light() ? 3 : 6;

  // Solver jobs and their serial references.
  std::vector<std::unique_ptr<testutil::GridInstance>> gis;
  std::vector<CdSolver::Job> jobs;
  for (std::size_t i = 0; i < num_jobs; ++i) {
    gis.push_back(make_grid_instance((i + 1) * 71, 9, 8, 3, 2 + i % 5));
    CdSolver::Job job;
    job.instance = &gis.back()->inst;
    job.future_cost = gis.back()->fc.get();
    job.seed = i + 1;
    jobs.push_back(job);
  }
  CdSolver ref_solver;
  std::vector<SolveResult> want_jobs;
  for (const CdSolver::Job& job : jobs) {
    const StatusOr<SolveResult> r = ref_solver.solve(job);
    ASSERT_TRUE(r.ok());
    want_jobs.push_back(r.value());
  }
  Router ref_router(grid, nl, opts);
  ASSERT_TRUE(ref_router.run(rounds).ok());

  Engine engine(EngineOptions{2, 64u << 20});
  EngineServer server(engine, {});
  const SessionId router_id =
      server.open_router_session(grid, nl, opts).value();
  TenantOptions solver_tenant;
  solver_tenant.weight = 2;
  const SessionId solver_id =
      server.open_solver_session(SolverOptions{}, solver_tenant).value();
  ASSERT_TRUE(server.submit_rounds(router_id, rounds).ok());
  for (const CdSolver::Job& job : jobs) {
    ASSERT_TRUE(server.submit_job(solver_id, job).ok());
  }
  ASSERT_TRUE(server.run_until_idle().ok());

  expect_same_routing(server.result(router_id).value(), ref_router.result());
  ASSERT_EQ(server.results_ready(solver_id), num_jobs);
  for (std::size_t i = 0; i < num_jobs; ++i) {
    const StatusOr<SolveResult> got = server.pop_result(solver_id);
    ASSERT_TRUE(got.ok());
    expect_same(got.value(), want_jobs[i], i, "serve job");
  }
  EXPECT_EQ(server.pop_result(solver_id).status().code(),
            StatusCode::kFailedPrecondition);

  const ServeStats stats = server.stats();
  ASSERT_EQ(stats.tenants.size(), 2u);
  EXPECT_EQ(stats.tenants[0].kind, SessionKind::kRouter);
  EXPECT_EQ(stats.tenants[0].rounds_completed, rounds);
  EXPECT_EQ(stats.tenants[1].kind, SessionKind::kSolver);
  EXPECT_EQ(stats.tenants[1].jobs_completed, num_jobs);
}

TEST(EngineServer, StatsAndCancelAreSafeFromOtherThreadsDuringServing) {
  const int rounds = stress_light() ? 2 : 4;
  const RouterOptions opts = serve_router_options(2, 4);
  const ChipConfig ca = tenant_chip(71);
  const ChipConfig cb = tenant_chip(72);
  const RoutingGrid grid_a = make_chip_grid(ca);
  const RoutingGrid grid_b = make_chip_grid(cb);
  const Netlist nl_a = generate_netlist(ca, grid_a);
  const Netlist nl_b = generate_netlist(cb, grid_b);

  Router ref_a(grid_a, nl_a, opts);
  ASSERT_TRUE(ref_a.run(rounds).ok());

  Engine engine(EngineOptions{2, 64u << 20});
  EngineServer server(engine, {});
  const SessionId a =
      server.open_router_session(grid_a, nl_a, opts).value();
  const SessionId b =
      server.open_router_session(grid_b, nl_b, opts).value();
  ASSERT_TRUE(server.submit_rounds(a, rounds).ok());
  ASSERT_TRUE(server.submit_rounds(b, rounds).ok());

  // A reader hammering the fleet snapshot and a canceller latching tenant
  // b's token race the serving pump — the documented any-thread surface.
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      const ServeStats stats = server.stats();
      EXPECT_LE(stats.queue_depth, 2u);
    }
  });
  std::thread canceller([&] { EXPECT_TRUE(server.cancel(b).ok()); });

  ASSERT_TRUE(server.run_until_idle().ok());
  stop.store(true);
  reader.join();
  canceller.join();

  // Tenant a is untouched by the concurrent cancel of b.
  expect_same_routing(server.result(a).value(), ref_a.result());
  // b either finished before the cancel latched or paused cleanly; both
  // leave it resumable to the bit-identical end state.
  ASSERT_TRUE(server.resume(b).ok());
  ASSERT_TRUE(server.run_until_idle().ok());
  Router ref_b(grid_b, nl_b, opts);
  ASSERT_TRUE(ref_b.run(rounds).ok());
  expect_same_routing(server.result(b).value(), ref_b.result());
}

}  // namespace
}  // namespace cdst
