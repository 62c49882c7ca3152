// Tests for the fault-tolerance layer: the deterministic fault-site
// registry (util/fault_injection.h), deadline propagation and the
// cancel_poll_interval zero-handling regression, checkpoint/restore of
// Router round state, and — in CDST_FAULT_INJECTION builds — the fault
// SWEEP: every site in the manifest below is armed in turn and each engine
// call must either fail with a clean typed Status or succeed bit-identically
// to a fault-free run, with the session usable afterwards.
//
// kFaultSiteManifest is the pinned universe of injection sites.
// scripts/check_invariants.py (rule `fault-site`) fails the tree when a
// CDST_FAULT_POINT exists in src/ whose name is not listed here, so the
// sweep can never silently under-cover.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "api/cdst.h"
#include "api/engine.h"
#include "api/scratch_pool.h"
#include "dist/transport.h"
#include "serve/serve.h"
#include "grid/future_cost.h"
#include "grid/routing_grid.h"
#include "route/netlist_gen.h"
#include "stress.h"
#include "test_instances.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"

namespace cdst {
namespace {

using testutil::GridInstance;
using testutil::expect_same;
using testutil::expect_router_invariants;
using testutil::expect_same_routing;
using testutil::make_grid_instance;
using testutil::stress_light;

// The sweep manifest: every CDST_FAULT_POINT site compiled into src/.
constexpr const char* kFaultSiteManifest[] = {
    "dist.transport",
    "pool.task",
    "router.unit",
    "serve.admit",
    "solver.budget_reserve",
    "stream.dispatch",
    "window.rebuild",
};

/// Smaller than testutil::tiny_chip(): the sweep and the restore matrix run
/// many full router sessions, so the per-run cost matters more than grid
/// variety here.
ChipConfig small_chip() {
  ChipConfig c;
  c.name = "fault-sweep";
  c.num_nets = 24;
  c.num_layers = 3;
  c.nx = c.ny = 12;
  c.capacity = 8.0;
  c.seed = 7;
  return c;
}

RouterOptions sweep_router_options() {
  RouterOptions opts;
  opts.method = SteinerMethod::kCD;
  opts.seed = 5;
  opts.threads = 2;
  opts.shards = 4;
  return opts;
}

struct JobFixture {
  std::vector<std::unique_ptr<GridInstance>> gis;
  std::vector<CdSolver::Job> jobs;
};

JobFixture make_jobs(std::size_t count) {
  JobFixture f;
  for (std::uint64_t s = 1; s <= count; ++s) {
    f.gis.push_back(make_grid_instance(s * 71, 9, 8, 3, 2 + s % 7));
  }
  for (std::size_t i = 0; i < f.gis.size(); ++i) {
    CdSolver::Job job;
    job.instance = &f.gis[i]->inst;
    job.future_cost = f.gis[i]->fc.get();
    job.seed = i + 1;
    f.jobs.push_back(job);
  }
  return f;
}

// ------------------------------------------------------- registry semantics

TEST(FaultRegistry, NthHitFiresOnceThenSelfDisarms) {
  FaultRegistry& reg = FaultRegistry::instance();
  detail::FaultSite* site = reg.register_site("test.registry.nth");
  FaultPolicy policy;
  policy.trigger = FaultPolicy::Trigger::kNthHit;
  policy.n = 2;
  reg.arm("test.registry.nth", policy);

  EXPECT_NO_THROW(site->hit());                 // hit 1 of 2
  EXPECT_THROW(site->hit(), InjectedFault);     // hit 2 fires...
  EXPECT_NO_THROW(site->hit());                 // ...and self-disarmed
  EXPECT_NO_THROW(site->hit());
  EXPECT_EQ(reg.fired("test.registry.nth"), 1u);
  EXPECT_GE(reg.hits("test.registry.nth"), 4u);
  reg.disarm_all();
}

TEST(FaultRegistry, EveryKFiresPersistently) {
  FaultRegistry& reg = FaultRegistry::instance();
  detail::FaultSite* site = reg.register_site("test.registry.everyk");
  FaultPolicy policy;
  policy.trigger = FaultPolicy::Trigger::kEveryK;
  policy.n = 2;
  reg.arm("test.registry.everyk", policy);

  for (int round = 0; round < 3; ++round) {
    EXPECT_NO_THROW(site->hit()) << "round " << round;
    EXPECT_THROW(site->hit(), InjectedFault) << "round " << round;
  }
  EXPECT_EQ(reg.fired("test.registry.everyk"), 3u);
  reg.disarm("test.registry.everyk");
  EXPECT_NO_THROW(site->hit());
}

TEST(FaultRegistry, ProbabilityExtremesAreDeterministic) {
  FaultRegistry& reg = FaultRegistry::instance();
  detail::FaultSite* site = reg.register_site("test.registry.prob");
  FaultPolicy policy;
  policy.trigger = FaultPolicy::Trigger::kProbability;
  policy.probability = 0.0;
  policy.seed = 42;
  reg.arm("test.registry.prob", policy);
  for (int i = 0; i < 50; ++i) EXPECT_NO_THROW(site->hit());

  policy.probability = 1.0;
  reg.arm("test.registry.prob", policy);
  for (int i = 0; i < 5; ++i) EXPECT_THROW(site->hit(), InjectedFault);
  reg.disarm_all();
}

TEST(FaultRegistry, ExceptionNamesTheSite) {
  FaultRegistry& reg = FaultRegistry::instance();
  detail::FaultSite* site = reg.register_site("test.registry.named");
  reg.arm("test.registry.named", FaultPolicy{});
  try {
    site->hit();
    FAIL() << "armed nth-hit(1) site did not fire";
  } catch (const InjectedFault& e) {
    EXPECT_EQ(e.site(), "test.registry.named");
  }
  reg.disarm_all();
}

TEST(FaultRegistry, ArmRegistersUnknownSitesAndSitesAreSorted) {
  FaultRegistry& reg = FaultRegistry::instance();
  reg.arm("test.registry.zzz-unseen", FaultPolicy{});
  reg.disarm_all();
  const std::vector<std::string> names = reg.sites();
  bool found = false;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == "test.registry.zzz-unseen") found = true;
    if (i > 0) {
      EXPECT_LE(names[i - 1], names[i]);
    }
  }
  EXPECT_TRUE(found);
}

// -------------------------------------------- cancel_poll_interval == 0 fix

TEST(RunControl, ZeroPollIntervalMeansTheDefault) {
  RunControl control;
  control.cancel_poll_interval = 0;
  EXPECT_EQ(detail::make_solve_controls(control).cancel_poll_interval,
            kDefaultCancelPollInterval);
  control.cancel_poll_interval = 7;
  EXPECT_EQ(detail::make_solve_controls(control).cancel_poll_interval, 7u);
}

TEST(RunControl, ZeroPollIntervalSolveStillCancelsAndCompletes) {
  const auto gi = make_grid_instance(11, 10, 9, 3, 7);
  SolverOptions opts;
  opts.future_cost = gi->fc.get();
  CdSolver solver(opts);

  // Pre-cancelled token + interval 0: the solve must still observe the
  // cancellation (a zero interval must never mean "never poll").
  CancelToken cancelled;
  cancelled.request_cancel();
  RunControl control;
  control.cancel = &cancelled;
  control.cancel_poll_interval = 0;
  const StatusOr<SolveResult> r = solver.solve(gi->inst, control);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);

  // Uncancelled + interval 0: completes, bit-identical to the default.
  RunControl zero;
  zero.cancel_poll_interval = 0;
  const StatusOr<SolveResult> a = solver.solve(gi->inst, zero);
  const StatusOr<SolveResult> b = solver.solve(gi->inst);
  ASSERT_TRUE(a.ok() && b.ok());
  expect_same(*a, *b, 0, "zero-interval solve");
}

// ----------------------------------------------------------------- deadline

TEST(Deadline, ExpiredSolveDeadlineReturnsTypedStatus) {
  const auto gi = make_grid_instance(21, 10, 9, 3, 7);
  SolverOptions opts;
  opts.future_cost = gi->fc.get();
  CdSolver solver(opts);

  RunControl control;
  control.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  control.cancel_poll_interval = 1;  // poll every pop: tiny instances too
  const StatusOr<SolveResult> r = solver.solve(gi->inst, control);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);

  // The session survives a deadline miss; a generous deadline succeeds and
  // matches an uncontrolled solve bit-identically.
  RunControl generous;
  generous.deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(10);
  const StatusOr<SolveResult> ok = solver.solve(gi->inst, generous);
  const StatusOr<SolveResult> plain = solver.solve(gi->inst);
  ASSERT_TRUE(ok.ok() && plain.ok());
  expect_same(*ok, *plain, 0, "deadline solve");
}

TEST(Deadline, ExpiredBatchAndStreamDeadlinesFailPerJob) {
  const JobFixture f = make_jobs(4);
  ThreadPool pool(2);
  CdSolver solver({}, &pool);
  RunControl expired;
  expired.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  expired.cancel_poll_interval = 1;

  const auto batch =
      solver.solve_batch(std::span<const CdSolver::Job>(f.jobs), expired);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kDeadlineExceeded);

  SolveStream stream = solver.stream({}, expired);
  for (const CdSolver::Job& job : f.jobs) {
    ASSERT_TRUE(stream.submit(job).ok());
  }
  std::size_t failed = 0;
  for (StatusOr<SolveResult>& r : stream.drain()) {
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
      ++failed;
    }
  }
  EXPECT_EQ(failed, f.jobs.size());
}

TEST(Deadline, RouterDeadlineStopsAtRoundBoundaryAndSessionRecovers) {
  const ChipConfig c = small_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  const RouterOptions opts = sweep_router_options();

  Router ref(grid, nl, opts);
  ASSERT_TRUE(ref.run(2).ok());
  const RouterResult want = ref.result();

  Router session(grid, nl, opts);
  RunControl expired;
  expired.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  const Status st = session.run(2, expired);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(session.rounds_completed(), 0);

  // Same partial-progress contract as cancellation: the session continues
  // cleanly and lands bit-identically on the uninterrupted result.
  ASSERT_TRUE(session.run(2).ok());
  expect_same_routing(session.result(), want);

  RunControl generous;
  generous.deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(10);
  Router timed(grid, nl, opts);
  ASSERT_TRUE(timed.run(2, generous).ok());
  expect_same_routing(timed.result(), want);
}

// ------------------------------------------------------------ shared budget

TEST(Budget, OversizedSharedBudgetFallsBackToSparseState) {
  const ChipConfig c = small_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  RouterOptions opts = sweep_router_options();
  // A one-byte shared budget cannot hold any dense footprint: every solve
  // falls back to sparse state and the round succeeds.
  opts.oracle.cd.dense_state_budget_bytes = 1;

  Router lenient(grid, nl, opts);
  EXPECT_TRUE(lenient.run(1).ok());
  EXPECT_EQ(lenient.rounds_completed(), 1);
}

// ------------------------------------------------------ checkpoint/restore

TEST(RouterCheckpointTest, ResumesBitIdenticallyAndBytesRoundTrip) {
  const ChipConfig c = small_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  const RouterOptions opts = sweep_router_options();

  Router ref(grid, nl, opts);
  ASSERT_TRUE(ref.run(4).ok());
  const RouterResult want = ref.result();

  Router half(grid, nl, opts);
  ASSERT_TRUE(half.run(2).ok());
  const RouterCheckpoint cp = half.checkpoint();
  EXPECT_EQ(cp.rounds_done, 2);

  // Wire round trip, then resume a fresh session from the parsed bytes.
  const std::vector<std::uint8_t> bytes = cp.to_bytes();
  const StatusOr<RouterCheckpoint> parsed =
      RouterCheckpoint::from_bytes(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();

  Router resumed(grid, nl, opts);
  ASSERT_TRUE(resumed.restore(*parsed).ok());
  EXPECT_EQ(resumed.rounds_completed(), 2);
  ASSERT_TRUE(resumed.run(2).ok());
  expect_same_routing(resumed.result(), want);
}

TEST(RouterCheckpointTest, RejectsCorruptAndMismatchedInput) {
  const ChipConfig c = small_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  const RouterOptions opts = sweep_router_options();
  Router session(grid, nl, opts);
  ASSERT_TRUE(session.run(1).ok());
  const RouterCheckpoint cp = session.checkpoint();
  const std::vector<std::uint8_t> bytes = cp.to_bytes();

  // Empty / truncated / bad magic all fail parsing cleanly.
  EXPECT_EQ(RouterCheckpoint::from_bytes({}).status().code(),
            StatusCode::kInvalidArgument);
  const std::span<const std::uint8_t> truncated(bytes.data(),
                                                bytes.size() / 2);
  EXPECT_EQ(RouterCheckpoint::from_bytes(truncated).status().code(),
            StatusCode::kInvalidArgument);
  std::vector<std::uint8_t> bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  EXPECT_EQ(RouterCheckpoint::from_bytes(bad_magic).status().code(),
            StatusCode::kInvalidArgument);
  // Version 1 had no round cursor; its bytes are refused, not guessed at.
  std::vector<std::uint8_t> version_one = bytes;
  version_one[4] = 1;  // the little-endian version follows the magic
  EXPECT_EQ(RouterCheckpoint::from_bytes(version_one).status().code(),
            StatusCode::kInvalidArgument);

  // A seed mismatch is a precondition failure (wrong session), not a
  // malformed checkpoint; the session must be left unchanged.
  RouterCheckpoint wrong_seed = cp;
  wrong_seed.options_seed ^= 1;
  Router other(grid, nl, opts);
  EXPECT_EQ(other.restore(wrong_seed).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(other.rounds_completed(), 0);

  // Out-of-range route edges and broken offset shapes are rejected.
  RouterCheckpoint bad_edge = cp;
  if (!bad_edge.route_edges.empty()) {
    bad_edge.route_edges[0] =
        static_cast<std::uint32_t>(grid.graph().num_edges());
    EXPECT_EQ(other.restore(bad_edge).code(), StatusCode::kInvalidArgument);
  }
  RouterCheckpoint bad_offsets = cp;
  bad_offsets.route_offsets.pop_back();
  EXPECT_EQ(other.restore(bad_offsets).code(), StatusCode::kInvalidArgument);
  RouterCheckpoint bad_rounds = cp;
  bad_rounds.weights_round = bad_rounds.rounds_done + 1;
  EXPECT_EQ(other.restore(bad_rounds).code(), StatusCode::kInvalidArgument);
  // A round cursor must name a net, and a round stopped inside has taken
  // its multiplier step (cp sits at the barrier before round 1's step).
  RouterCheckpoint past_last_net = cp;
  past_last_net.round_cursor = nl.nets.size();
  EXPECT_EQ(other.restore(past_last_net).code(),
            StatusCode::kInvalidArgument);
  RouterCheckpoint unstepped = cp;
  unstepped.round_cursor = 1;
  ASSERT_NE(unstepped.weights_round, unstepped.rounds_done);
  EXPECT_EQ(other.restore(unstepped).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(other.rounds_completed(), 0);
  // Sink weights and delays must be finite and >= 0. With weights_round ==
  // rounds_done no multiplier step would clamp a bad weight before the next
  // solve, so restore() is the only place to refuse it.
  ASSERT_FALSE(cp.sink_weights.empty());
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), -1.0,
                           std::numeric_limits<double>::infinity()}) {
    for (const bool weights : {true, false}) {
      SCOPED_TRACE(testing::Message()
                   << (weights ? "sink_weights" : "sink_delays") << " = "
                   << bad);
      RouterCheckpoint bad_value = cp;
      bad_value.weights_round = bad_value.rounds_done;
      (weights ? bad_value.sink_weights : bad_value.sink_delays)[0] = bad;
      EXPECT_EQ(other.restore(bad_value).code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(other.rounds_completed(), 0);
    }
  }

  // After all the rejections the pristine session still works.
  ASSERT_TRUE(other.restore(cp).ok());
  ASSERT_TRUE(other.run(1).ok());
}

#ifdef CDST_FAULT_INJECTION

// ------------------------------------------------------------- fault sweep

/// Records fault events (api/events.h) so the sweep can assert retries are
/// observable.
struct FaultRecorder final : EventSink {
  std::vector<FaultEvent> faults;
  void on_fault(const FaultEvent& event) override {
    faults.push_back(event);
  }
};

TEST(FaultSweep, ManifestSitesAllRegisterAndFire) {
  // Drive every engine surface once with nothing armed: each executed
  // CDST_FAULT_POINT registers itself, so afterwards the registry must know
  // every manifest site (the fault-site lint rule pins the reverse
  // direction: no site exists outside the manifest).
  FaultRegistry& reg = FaultRegistry::instance();
  reg.disarm_all();

  const ChipConfig c = small_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  Router session(grid, nl, sweep_router_options());
  ASSERT_TRUE(session.run(1).ok());

  // A transport-backed sharded round is the only surface that executes the
  // "dist.transport" site.
  {
    dist::InProcessTransport transport;
    RouterOptions topts = sweep_router_options();
    topts.transport = &transport;
    Router tsession(grid, nl, topts);
    ASSERT_TRUE(tsession.run(1).ok());
  }

  const JobFixture f = make_jobs(2);
  ThreadPool pool(2);
  CdSolver solver({}, &pool);
  ASSERT_TRUE(
      solver.solve_batch(std::span<const CdSolver::Job>(f.jobs)).ok());
  {
    SolveStream stream = solver.stream();
    ASSERT_TRUE(stream.submit(f.jobs[0]).ok());
    for (StatusOr<SolveResult>& r : stream.drain()) ASSERT_TRUE(r.ok());
  }

  // A serving-core admission is the only surface that executes the
  // "serve.admit" site.
  {
    Engine engine(EngineOptions{2, 64u << 20});
    serve::EngineServer server(engine, {});
    const StatusOr<serve::SessionId> id =
        server.open_router_session(grid, nl, sweep_router_options());
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(server.submit_rounds(id.value(), 1).ok());
    ASSERT_TRUE(server.run_until_idle().ok());
  }

  const std::vector<std::string> registered = reg.sites();
  for (const char* site : kFaultSiteManifest) {
    bool found = false;
    for (const std::string& name : registered) {
      if (name == site) found = true;
    }
    EXPECT_TRUE(found) << "manifest site never registered: " << site;
    EXPECT_GE(reg.hits(site), 1u) << "manifest site never hit: " << site;
  }
}

TEST(FaultSweep, EverySiteGivesCleanStatusOrBitIdenticalResult) {
  const ChipConfig c = small_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  const RouterOptions opts = sweep_router_options();
  FaultRegistry& reg = FaultRegistry::instance();
  reg.disarm_all();
  reg.reset_counters();

  // Fault-free references for every workload the sweep drives.
  Router ref(grid, nl, opts);
  ASSERT_TRUE(ref.run(2).ok());
  const RouterResult want = ref.result();

  const JobFixture f = make_jobs(4);
  ThreadPool pool(2);
  std::vector<SolveResult> batch_want;
  {
    CdSolver solver({}, &pool);
    const auto r = solver.solve_batch(std::span<const CdSolver::Job>(f.jobs));
    ASSERT_TRUE(r.ok());
    batch_want = *r;
  }

  for (const char* site : kFaultSiteManifest) {
    SCOPED_TRACE(site);
    const FaultPolicy transient;  // nth-hit(1): fires once, self-disarms

    // Router workload: a transient fault either never reaches this
    // workload's code paths (clean OK), is absorbed by the sharded retry
    // (clean OK), or surfaces as kUnavailable — never a crash, never a
    // corrupted session.
    reg.arm(site, transient);
    Router session(grid, nl, opts);
    const Status st = session.run(2);
    reg.disarm_all();
    if (st.ok()) {
      expect_same_routing(session.result(), want);
    } else {
      EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.to_string();
      // Session reusable after the failure: finish the remaining rounds
      // fault-free and land on the uninterrupted result.
      ASSERT_TRUE(session.run(2 - session.rounds_completed()).ok());
      expect_same_routing(session.result(), want);
    }

    // Batch workload: all-or-nothing surface; a fault is a typed failure.
    reg.arm(site, transient);
    {
      CdSolver solver({}, &pool);
      const auto r =
          solver.solve_batch(std::span<const CdSolver::Job>(f.jobs));
      if (r.ok()) {
        ASSERT_EQ(r->size(), batch_want.size());
        for (std::size_t i = 0; i < r->size(); ++i) {
          expect_same((*r)[i], batch_want[i], i, "sweep batch");
        }
      } else {
        EXPECT_EQ(r.status().code(), StatusCode::kUnavailable)
            << r.status().to_string();
      }
    }
    reg.disarm_all();

    // Transport workload: the same sharded rounds routed through an
    // InProcessTransport — the only surface that reaches "dist.transport",
    // and for every other site an extra pass over the transport-backed
    // round. Bit-identity against the direct-round reference is the
    // transport layer's core claim.
    reg.arm(site, transient);
    {
      dist::InProcessTransport transport;
      RouterOptions topts = opts;
      topts.transport = &transport;
      Router tsession(grid, nl, topts);
      const Status tst = tsession.run(2);
      reg.disarm_all();
      if (tst.ok()) {
        expect_same_routing(tsession.result(), want);
      } else {
        EXPECT_EQ(tst.code(), StatusCode::kUnavailable) << tst.to_string();
        ASSERT_TRUE(tsession.run(2 - tsession.rounds_completed()).ok());
        expect_same_routing(tsession.result(), want);
      }
    }

    // Stream workload: per-job surface; at most the faulted jobs fail, the
    // stream itself stays deliverable in submission order.
    reg.arm(site, transient);
    {
      CdSolver solver({}, &pool);
      SolveStream stream = solver.stream();
      for (const CdSolver::Job& job : f.jobs) {
        ASSERT_TRUE(stream.submit(job).ok());
      }
      std::vector<StatusOr<SolveResult>> results = stream.drain();
      ASSERT_EQ(results.size(), f.jobs.size());
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i].ok()) {
          expect_same(*results[i], batch_want[i], i, "sweep stream");
        } else {
          EXPECT_EQ(results[i].status().code(), StatusCode::kUnavailable)
              << results[i].status().to_string();
        }
      }
    }
    reg.disarm_all();

    // Serve workload: a two-tenant schedule over the serving core — the
    // only surface that reaches "serve.admit". An injected admission fault
    // surfaces as clean kUnavailable from open with the registry untouched
    // (committed state intact: the session count is exactly the successful
    // opens); a fault inside a slice pauses only its tenant with a typed
    // status, and the paused session resumes bit-identically.
    reg.arm(site, transient);
    {
      Engine engine(EngineOptions{2, 64u << 20});
      serve::EngineServer server(engine, {});
      std::vector<serve::SessionId> ids;
      for (int tenant = 0; tenant < 2; ++tenant) {
        StatusOr<serve::SessionId> id =
            server.open_router_session(grid, nl, opts);
        if (!id.ok()) {
          EXPECT_EQ(id.status().code(), StatusCode::kUnavailable)
              << id.status().to_string();
          EXPECT_EQ(server.stats().sessions_open, ids.size())
              << "failed admission must leave the registry untouched";
          reg.disarm_all();  // the nth-hit policy already self-disarmed
          id = server.open_router_session(grid, nl, opts);
          ASSERT_TRUE(id.ok()) << id.status().to_string();
        }
        ids.push_back(id.value());
        ASSERT_TRUE(server.submit_rounds(id.value(), 2).ok());
      }
      ASSERT_TRUE(server.run_until_idle().ok());
      for (const serve::SessionId sid : ids) {
        const Status tenant_status = server.session_status(sid);
        if (!tenant_status.ok()) {
          EXPECT_EQ(tenant_status.code(), StatusCode::kUnavailable)
              << tenant_status.to_string();
          reg.disarm_all();
          ASSERT_TRUE(server.resume(sid).ok());
          ASSERT_TRUE(server.run_until_idle().ok());
          EXPECT_TRUE(server.session_status(sid).ok());
        }
        expect_same_routing(server.result(sid).value(), want);
      }
    }
    reg.disarm_all();
  }

  // The sweep must have actually exercised every site: a site that never
  // fired was armed but unreachable, i.e. the sweep under-covers.
  for (const char* site : kFaultSiteManifest) {
    EXPECT_GE(reg.fired(site), 1u) << "sweep never fired site: " << site;
  }
}

TEST(FaultSweep, ShardRetryRecoversBitIdenticallyAndEmitsFaultEvents) {
  const ChipConfig c = small_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  const RouterOptions opts = sweep_router_options();
  FaultRegistry& reg = FaultRegistry::instance();
  reg.disarm_all();

  Router ref(grid, nl, opts);
  ASSERT_TRUE(ref.run(2).ok());
  const RouterResult want = ref.result();

  // Transient shard fault: attempt 1 fails, the retry completes the round,
  // and the result is bit-identical — the retry is observable only
  // through the FaultEvent.
  reg.arm("router.unit", FaultPolicy{});
  FaultRecorder recorder;
  RunControl control;
  control.events = &recorder;
  Router session(grid, nl, opts);
  ASSERT_TRUE(session.run(2, control).ok());
  reg.disarm_all();
  expect_same_routing(session.result(), want);
  expect_router_invariants(grid, nl, opts.congestion, session.result());

  ASSERT_EQ(recorder.faults.size(), 1u);
  EXPECT_STREQ(recorder.faults[0].stage, "router_unit");
  EXPECT_EQ(recorder.faults[0].attempt, 1);
  EXPECT_TRUE(recorder.faults[0].retrying);
  EXPECT_EQ(recorder.faults[0].status, StatusCode::kUnavailable);
}

TEST(FaultSweep, RetriedShardRoundEmitsEachShardEventOnce) {
  // A retry re-runs only the units (shard spans) the faulted attempt left
  // unfinished. Units the first attempt completed never run again, so every
  // shard reports exactly once per round, nets_done rises monotonically to
  // the netlist total, and the routes match a fault-free run.
  const ChipConfig c = small_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  RouterOptions opts = sweep_router_options();
  opts.threads = 4;
  opts.shards = 4;
  FaultRegistry& reg = FaultRegistry::instance();
  reg.disarm_all();

  // The fault-free round hits the site once per routed span.
  reg.reset_counters();
  Router ref(grid, nl, opts);
  ASSERT_TRUE(ref.run(1).ok());
  const RouterResult want = ref.result();
  const std::uint64_t spans = reg.hits("router.unit");
  ASSERT_GT(spans, 4u);

  struct ShardRecorder final : EventSink {
    std::vector<RouterShardEvent> shards;
    std::vector<FaultEvent> faults;
    void on_router_shard(const RouterShardEvent& event) override {
      shards.push_back(event);
    }
    void on_fault(const FaultEvent& event) override {
      faults.push_back(event);
    }
  } recorder;
  RunControl control;
  control.events = &recorder;
  // Fault the last span the first attempt starts: every other span has
  // started by then and runs to completion, so the first attempt completes
  // every span but one whatever the lane timing, and the retry must route
  // only that one: the site's hits are the fault-free spans plus one.
  reg.reset_counters();
  FaultPolicy last_span;
  last_span.n = spans;
  reg.arm("router.unit", last_span);
  Router session(grid, nl, opts);
  ASSERT_TRUE(session.run(1, control).ok());
  reg.disarm_all();
  EXPECT_EQ(reg.hits("router.unit"), spans + 1)
      << "only the faulted unit re-runs";
  expect_same_routing(session.result(), want);
  expect_router_invariants(grid, nl, opts.congestion, session.result());

  ASSERT_EQ(recorder.faults.size(), 1u) << "the fault forced one retry";
  EXPECT_TRUE(recorder.faults[0].retrying);
  ASSERT_EQ(recorder.shards.size(), 4u) << "one event per shard";
  std::vector<int> per_shard(4, 0);
  std::size_t last_done = 0;
  for (const RouterShardEvent& e : recorder.shards) {
    EXPECT_EQ(e.round, 0);
    ASSERT_GE(e.shard, 0);
    ASSERT_LT(e.shard, 4);
    ++per_shard[static_cast<std::size_t>(e.shard)];
    EXPECT_GT(e.nets_done, last_done) << "nets_done rises monotonically";
    last_done = e.nets_done;
    EXPECT_EQ(e.nets_total, nl.nets.size());
  }
  EXPECT_EQ(per_shard, std::vector<int>(4, 1));
  EXPECT_EQ(last_done, nl.nets.size());
}

TEST(FaultSweep, PersistentShardFaultExhaustsRetriesThenSessionRecovers) {
  const ChipConfig c = small_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  const RouterOptions opts = sweep_router_options();
  FaultRegistry& reg = FaultRegistry::instance();
  reg.disarm_all();

  Router ref(grid, nl, opts);
  ASSERT_TRUE(ref.run(2).ok());
  const RouterResult want = ref.result();

  FaultPolicy persistent;
  persistent.trigger = FaultPolicy::Trigger::kEveryK;
  persistent.n = 1;  // every hit: all bounded retries fail
  reg.arm("router.unit", persistent);
  FaultRecorder recorder;
  RunControl control;
  control.events = &recorder;
  Router session(grid, nl, opts);
  const Status st = session.run(2, control);
  reg.disarm_all();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_EQ(session.rounds_completed(), 0) << "no partial round committed";

  ASSERT_EQ(recorder.faults.size(), 3u) << "one event per failed attempt";
  for (int attempt = 1; attempt <= 3; ++attempt) {
    EXPECT_EQ(recorder.faults[attempt - 1].attempt, attempt);
    EXPECT_EQ(recorder.faults[attempt - 1].retrying, attempt < 3);
  }

  // The give-up left committed state at the previous barrier; the same
  // session finishes fault-free and matches the uninterrupted run.
  ASSERT_TRUE(session.run(2).ok());
  expect_same_routing(session.result(), want);
  expect_router_invariants(grid, nl, opts.congestion, session.result());
}

TEST(FaultSweep, BatchedRoundRetriesTransientFault) {
  // Batched rounds run on the same executor as sharded ones, so they retry
  // the same way: a one-shot fault fails one unit (a net of the batch), the
  // retry re-routes it against the same ripped-up usage, and the run ends
  // bit-identical to a fault-free one.
  const ChipConfig c = small_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  RouterOptions opts = sweep_router_options();
  opts.shards = 0;
  FaultRegistry& reg = FaultRegistry::instance();
  reg.disarm_all();

  Router ref(grid, nl, opts);
  ASSERT_TRUE(ref.run(2).ok());
  const RouterResult want = ref.result();

  reg.arm("router.unit", FaultPolicy{});
  FaultRecorder recorder;
  RunControl control;
  control.events = &recorder;
  Router session(grid, nl, opts);
  const Status st = session.run(2, control);
  reg.disarm_all();
  ASSERT_TRUE(st.ok()) << st.to_string();
  expect_same_routing(session.result(), want);
  expect_router_invariants(grid, nl, opts.congestion, session.result());

  ASSERT_EQ(recorder.faults.size(), 1u);
  EXPECT_STREQ(recorder.faults[0].stage, "router_unit");
  EXPECT_EQ(recorder.faults[0].round, 0);
  EXPECT_EQ(recorder.faults[0].attempt, 1);
  EXPECT_TRUE(recorder.faults[0].retrying);
  EXPECT_EQ(recorder.faults[0].status, StatusCode::kUnavailable);
}

TEST(FaultSweep, CrashCheckpointRestoreMatrixIsBitIdentical) {
  // Crash-inject mid-run, checkpoint the survivor, restore into a fresh
  // session, finish, and compare to an uninterrupted reference — across
  // thread and shard counts, batched (shards = 0) rounds included.
  const ChipConfig c = small_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  FaultRegistry& reg = FaultRegistry::instance();
  reg.disarm_all();

  RouterOptions base = sweep_router_options();
  base.threads = 1;
  base.batch_size = 8;  // three batches per round: a batched crash can
                        // stop inside a round
  // The two disciplines rip up differently, so each has its own reference:
  // want[0] batched, want[1] sharded (any shard count).
  std::vector<RouterResult> want;
  for (const int shards : {0, 1}) {
    RouterOptions opts = base;
    opts.shards = shards;
    Router ref(grid, nl, opts);
    ASSERT_TRUE(ref.run(4).ok());
    want.push_back(ref.result());
  }

  const std::vector<int> thread_counts =
      stress_light() ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};
  for (const int threads : thread_counts) {
    for (const int shards : {0, 1, 4}) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " shards=" << shards);
      RouterOptions opts = base;
      opts.threads = threads;
      opts.shards = shards;

      Router victim(grid, nl, opts);
      ASSERT_TRUE(victim.run(2).ok());
      // A batched victim commits round 3's first batch before the crash,
      // so it gives up mid-round and the checkpoint carries the cursor.
      if (shards == 0) {
        ASSERT_TRUE(victim.step(1).ok());
      }
      // Crash round 3 with a persistent fault (all retries exhausted).
      FaultPolicy persistent;
      persistent.trigger = FaultPolicy::Trigger::kEveryK;
      persistent.n = 1;
      reg.arm("router.unit", persistent);
      const Status st = victim.run(2);
      reg.disarm_all();
      ASSERT_FALSE(st.ok());
      ASSERT_EQ(victim.rounds_completed(), 2);

      // Serialize across the "process boundary" and resume elsewhere.
      const StatusOr<RouterCheckpoint> cp =
          RouterCheckpoint::from_bytes(victim.checkpoint().to_bytes());
      ASSERT_TRUE(cp.ok()) << cp.status().to_string();
      EXPECT_EQ(cp->round_cursor, shards == 0 ? 8u : 0u);
      Router resumed(grid, nl, opts);
      ASSERT_TRUE(resumed.restore(*cp).ok());
      ASSERT_TRUE(resumed.run(2).ok());
      expect_same_routing(resumed.result(), want[shards == 0 ? 0 : 1]);
      expect_router_invariants(grid, nl, opts.congestion, resumed.result());
    }
  }
}

#endif  // CDST_FAULT_INJECTION

}  // namespace
}  // namespace cdst
