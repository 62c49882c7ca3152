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
//  - The fair scheduler serves a newly runnable tenant at the next slice
//    boundary, gives backlogged tenants oracle work in proportion to their
//    weights, banks no credit for idle time and replays deterministically.
//  - Deadlines pause a tenant cleanly mid-schedule (its sink still gets the
//    cancelled round summary) and the session resumes bit-identically;
//    cancelling one tenant never perturbs another.
//  - Admission rejects over-capacity opens with typed kResourceExhausted
//    and the registry stays consistent.

#include <gtest/gtest.h>

#include <algorithm>
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
#include "util/rng.h"

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

TEST(FairScheduler, SkipsNotRunnableAndDrainsToNullopt) {
  FairScheduler sched;
  sched.add(1, 1);
  sched.add(2, 1);
  sched.set_runnable(2, true, 1);
  EXPECT_EQ(sched.pick(), SessionId{2});
  sched.set_runnable(2, false, 1);
  EXPECT_EQ(sched.pick(), std::nullopt);
  EXPECT_EQ(sched.runnable_count(), 0u);

  sched.remove(2);
  sched.set_runnable(1, true, 1);
  EXPECT_EQ(sched.pick(), SessionId{1});
  sched.remove(1);
  EXPECT_EQ(sched.pick(), std::nullopt);
  EXPECT_EQ(sched.size(), 0u);
}

TEST(FairScheduler, TenantRunnableAfterRouterAIsPickedBeforeRouterB) {
  // Two backlogged routers with heavy slices; a solver whose cheap job
  // arrives while router A's slice runs is served at the next slice
  // boundary, not after router B's slice too.
  FairScheduler sched;
  sched.add(1, 1);  // router A
  sched.add(2, 1);  // router B
  sched.add(3, 1);  // solver
  sched.set_runnable(1, true, 1000);
  sched.set_runnable(2, true, 1000);
  for (int i = 0; i < 6; ++i) {
    const SessionId router = sched.pick().value();
    EXPECT_NE(router, SessionId{3});
    sched.set_runnable(3, true, 10);
    EXPECT_EQ(sched.pick(), SessionId{3}) << "after router " << router;
    sched.set_runnable(3, false, 0);
  }
}

TEST(FairScheduler, BackloggedTenantsGetWorkSharesOfTheirWeights) {
  struct Tenant {
    SessionId id;
    int weight;
    std::uint64_t cost;
  };
  // Unequal weights and unequal (coprime) slice costs.
  const std::vector<Tenant> tenants = {{1, 1, 7}, {2, 3, 5}, {3, 2, 11}};
  FairScheduler sched;
  for (const Tenant& t : tenants) {
    sched.add(t.id, t.weight);
    sched.set_runnable(t.id, true, t.cost);
  }
  std::vector<double> work(tenants.size(), 0.0);
  for (int i = 0; i < 3000; ++i) {
    const SessionId id = sched.pick().value();
    work[id - 1] += static_cast<double>(tenants[id - 1].cost);
  }
  const double total = work[0] + work[1] + work[2];
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const double want = tenants[t].weight / 6.0;
    EXPECT_NEAR(work[t] / total, want, 0.1 * want) << "tenant " << t + 1;
  }
}

TEST(FairScheduler, IdleTenantReturnsWithoutBurst) {
  FairScheduler sched;
  sched.add(1, 1);
  sched.add(2, 1);
  sched.add(3, 1);
  sched.set_runnable(1, true, 1);
  sched.set_runnable(2, true, 1);
  // Tenant 3 sits idle while the others take 100 slices...
  for (int i = 0; i < 100; ++i) sched.pick();
  // ...and banks nothing: from its return on it gets its one-third share,
  // not a run of back-to-back slices to catch up.
  sched.set_runnable(3, true, 1);
  std::vector<int> picks(4, 0);
  for (int i = 0; i < 30; ++i) {
    const SessionId id = sched.pick().value();
    ++picks[id];
    EXPECT_LE(picks[3], i / 3 + 1) << "after " << i + 1 << " picks";
  }
  EXPECT_EQ(picks[1], 10);
  EXPECT_EQ(picks[2], 10);
  EXPECT_EQ(picks[3], 10);
}

TEST(FairScheduler, ReplayedHistoryGivesSamePicksWithTiesInAdmissionOrder) {
  // Equal tags tie: ids admitted out of numeric order are served in
  // admission order.
  {
    FairScheduler sched;
    for (const SessionId id : {5, 2, 9}) {
      sched.add(id, 1);
      sched.set_runnable(id, true, 4);
    }
    std::vector<SessionId> picks;
    for (int i = 0; i < 6; ++i) picks.push_back(sched.pick().value());
    EXPECT_EQ(picks, (std::vector<SessionId>{5, 2, 9, 5, 2, 9}));
  }
  // A seeded history of adds, removes, runnable flips and cost changes,
  // replayed into two schedulers, picks the same sessions.
  const auto replay = [] {
    FairScheduler sched;
    Rng rng(17);
    SessionId next_id = 1;
    std::vector<SessionId> picks;
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t op = rng.uniform(10);
      const SessionId id = 1 + rng.uniform(next_id);
      if (op == 0 && next_id < 12) {
        sched.add(next_id, 1 + static_cast<int>(rng.uniform(4)));
        ++next_id;
      } else if (op == 1) {
        sched.remove(id);
      } else if (op < 5) {
        sched.set_runnable(id, rng.uniform(3) != 0, 1 + rng.uniform(50));
      } else {
        picks.push_back(sched.pick().value_or(0));
      }
    }
    return picks;
  };
  const std::vector<SessionId> first = replay();
  EXPECT_EQ(first, replay());
  EXPECT_GT(std::count_if(first.begin(), first.end(),
                          [](SessionId id) { return id != 0; }),
            100);
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
  SliceRecorder expired_events;
  TenantOptions expired_tenant;
  expired_tenant.events = &expired_events;
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

  // The refused slice still tells the tenant's sink where it stopped: one
  // cancelled round summary, as a direct Router::step emits.
  ASSERT_EQ(expired_events.rounds.size(), 1u);
  EXPECT_TRUE(expired_events.rounds[0].cancelled);
  EXPECT_FALSE(expired_events.rounds[0].round_complete);
  EXPECT_EQ(expired_events.rounds[0].round, 0);
  EXPECT_EQ(expired_events.rounds[0].target_round, rounds);
  EXPECT_TRUE(expired_events.shards.empty());

  const ServeStats mid = server.stats();
  EXPECT_EQ(mid.deadline_expirations, 1u);
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

    // Step until each tenant has run a slice (the fair order need not
    // alternate tenants whose slices cost different work), then cancel b
    // mid-schedule.
    const auto slices_of = [&server](std::size_t tenant) {
      return server.stats().tenants[tenant].slices_run;
    };
    while (slices_of(0) == 0 || slices_of(1) == 0) {
      ASSERT_TRUE(server.step());
    }
    ASSERT_LT(server.stats().tenants[1].rounds_completed, rounds);
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

TEST(EngineServer, UnequalWeightsGetOracleWorkShares) {
  // Two backlogged router tenants with weights 1 and 3: while both are
  // runnable, the oracle work charged to them splits 1 : 3 (within 10%),
  // and both still end bit-identical to serial runs. Small batches give
  // many slices, so one slice's cost is a small part of either share.
  RouterOptions opts = serve_router_options(2, 0);
  opts.batch_size = 2;
  const int light_rounds = 8;
  const int heavy_rounds = 32;
  const ChipConfig cl = tenant_chip(91);
  const ChipConfig ch = tenant_chip(92);
  const RoutingGrid grid_l = make_chip_grid(cl);
  const RoutingGrid grid_h = make_chip_grid(ch);
  const Netlist nl_l = generate_netlist(cl, grid_l);
  const Netlist nl_h = generate_netlist(ch, grid_h);
  Router ref_l(grid_l, nl_l, opts);
  ASSERT_TRUE(ref_l.run(light_rounds).ok());
  Router ref_h(grid_h, nl_h, opts);
  ASSERT_TRUE(ref_h.run(heavy_rounds).ok());

  Engine engine(EngineOptions{2, 64u << 20});
  EngineServer server(engine, {});
  TenantOptions light;
  light.weight = 1;
  TenantOptions heavy;
  heavy.weight = 3;
  const SessionId l =
      server.open_router_session(grid_l, nl_l, opts, light).value();
  const SessionId h =
      server.open_router_session(grid_h, nl_h, opts, heavy).value();
  ASSERT_TRUE(server.submit_rounds(l, light_rounds).ok());
  ASSERT_TRUE(server.submit_rounds(h, heavy_rounds).ok());

  std::uint64_t light_work = 0;
  std::uint64_t heavy_work = 0;
  std::size_t light_slices = 0;
  while (server.step()) {
    const ServeStats stats = server.stats();
    if (!stats.tenants[0].runnable || !stats.tenants[1].runnable) break;
    light_work = stats.tenants[0].work_units;
    heavy_work = stats.tenants[1].work_units;
    light_slices = stats.tenants[0].slices_run;
  }
  ASSERT_GE(light_slices, 60u);
  ASSERT_GT(light_work, 0u);
  const double ratio =
      static_cast<double>(heavy_work) / static_cast<double>(light_work);
  EXPECT_NEAR(ratio, 3.0, 0.3) << heavy_work << " : " << light_work;

  ASSERT_TRUE(server.run_until_idle().ok());
  expect_same_routing(server.result(l).value(), ref_l.result());
  expect_same_routing(server.result(h).value(), ref_h.result());
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
