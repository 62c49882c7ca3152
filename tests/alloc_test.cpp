// Allocation contract of the recycled solver scratch: a warm solve allocates
// only its result. This executable replaces the global operator new/delete
// with counting versions (only this binary sees them) and asserts that,
// once a SolverScratch has served every instance of the schedule, each
// solve makes exactly as many heap allocations as its SolveResult owns
// non-empty vectors — and that each result equals a fresh-scratch solve
// bit for bit. A cancelled solve sits in the schedule, so the recycled
// queue must also shed the entries its unwind left behind. One level up, a
// warm router lane (route_round_net: window rebuild + solve) must allocate
// only its outcome and the solve's tree.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "core/cost_distance.h"
#include "grid/cost_model.h"
#include "route/netlist_gen.h"
#include "route/sharding.h"
#include "route/steiner_oracle.h"
#include "test_instances.h"

namespace {

// Counting is per thread and off by default, so gtest's own bookkeeping and
// the fixture setup never register.
thread_local bool t_counting = false;
thread_local std::size_t t_allocations = 0;

void* counted_alloc(std::size_t n) {
  if (t_counting) ++t_allocations;
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  if (t_counting) ++t_allocations;
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = ((n == 0 ? 1 : n) + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace cdst {
namespace {

/// Heap blocks a SolveResult owns: one per non-empty vector.
std::size_t result_blocks(const SolveResult& r) {
  std::size_t n = 0;
  const auto count = [&n](const auto& v) { n += v.empty() ? 0 : 1; };
  count(r.tree.nodes);
  for (const SteinerTree::Node& node : r.tree.nodes) count(node.up_path);
  count(r.tree.children);
  for (const auto& c : r.tree.children) count(c);
  count(r.eval.sink_delays);
  count(r.eval.node_lambda);
  return n;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

/// Exact equality of everything a solve returns.
void expect_identical(const SolveResult& got, const SolveResult& want,
                      const std::string& what) {
  ASSERT_EQ(got.tree.nodes.size(), want.tree.nodes.size()) << what;
  for (std::size_t i = 0; i < want.tree.nodes.size(); ++i) {
    const SteinerTree::Node& a = got.tree.nodes[i];
    const SteinerTree::Node& b = want.tree.nodes[i];
    EXPECT_EQ(a.graph_vertex, b.graph_vertex) << what << " node " << i;
    EXPECT_EQ(a.parent, b.parent) << what << " node " << i;
    EXPECT_EQ(a.sink_index, b.sink_index) << what << " node " << i;
    EXPECT_EQ(a.kind, b.kind) << what << " node " << i;
    EXPECT_EQ(a.up_path, b.up_path) << what << " node " << i;
  }
  EXPECT_EQ(got.tree.children, want.tree.children) << what;
  EXPECT_TRUE(same_bits(got.eval.objective, want.eval.objective)) << what;
  EXPECT_TRUE(same_bits(got.eval.connection_cost, want.eval.connection_cost))
      << what;
  EXPECT_TRUE(same_bits(got.eval.weighted_delay, want.eval.weighted_delay))
      << what;
  EXPECT_TRUE(
      same_bits(got.eval.total_delay_penalty, want.eval.total_delay_penalty))
      << what;
  EXPECT_TRUE(same_bits(got.eval.sink_delays, want.eval.sink_delays)) << what;
  EXPECT_TRUE(same_bits(got.eval.node_lambda, want.eval.node_lambda)) << what;
  EXPECT_EQ(got.eval.num_graph_edges, want.eval.num_graph_edges) << what;
  EXPECT_EQ(got.stats.iterations, want.stats.iterations) << what;
  EXPECT_EQ(got.stats.labels_settled, want.stats.labels_settled) << what;
  EXPECT_EQ(got.stats.labels_relaxed, want.stats.labels_relaxed) << what;
  EXPECT_EQ(got.stats.completions_popped, want.stats.completions_popped)
      << what;
  EXPECT_EQ(got.stats.completions_stale, want.stats.completions_stale)
      << what;
}

/// One router net as a box instance (the production arc source), on a
/// grid under uneven live prices.
struct BoxFixture {
  std::unique_ptr<RoutingGrid> grid;
  std::unique_ptr<CongestionCosts> costs;
  std::unique_ptr<OracleInstance> oi;
};

BoxFixture make_box_instance(std::uint64_t seed, std::size_t num_sinks) {
  BoxFixture f;
  f.grid = std::make_unique<RoutingGrid>(16, 14, make_default_layer_stack(4),
                                         ViaSpec{});
  f.costs = std::make_unique<CongestionCosts>(*f.grid);
  Rng rng(seed);
  const auto m = static_cast<std::uint64_t>(f.grid->graph().num_edges());
  for (int k = 0; k < 400; ++k) {
    f.costs->add_usage({static_cast<EdgeId>(rng.uniform(m))}, +1.0);
  }
  std::set<std::pair<std::int32_t, std::int32_t>> used;
  const auto pick = [&] {
    while (true) {
      const auto x = static_cast<std::int32_t>(rng.uniform(12)) + 2;
      const auto y = static_cast<std::int32_t>(rng.uniform(10)) + 2;
      if (used.insert({x, y}).second) return Point3{x, y, 0};
    }
  };
  Net net;
  net.source = pick();
  std::vector<double> weights;
  for (std::size_t s = 0; s < num_sinks; ++s) {
    net.sinks.push_back(SinkPin{pick(), 0.0});
    weights.push_back(std::exp(rng.uniform_double(-2.0, 2.0)));
  }
  OracleParams params;
  params.dbif = 2.0;
  params.window_margin = 1;
  params.window_margin_frac = 0.0;
  f.oi = std::make_unique<OracleInstance>(*f.grid, *f.costs, net, weights,
                                          params);
  return f;
}

struct Job {
  std::string name;
  const CostDistanceInstance* inst;
  SolverOptions opts;
};

TEST(SolverAllocations, WarmSolveAllocatesOnlyItsResult) {
  std::vector<std::unique_ptr<testutil::GridInstance>> grids;
  for (const std::size_t sinks : {1, 8, 30}) {
    grids.push_back(testutil::make_grid_instance(100 + sinks, 20, 18, 4,
                                                 sinks));
  }
  const BoxFixture box = make_box_instance(7, 8);

  std::vector<Job> jobs;
  for (const auto& gi : grids) {
    for (const bool sparse : {false, true}) {
      SolverOptions o;
      o.future_cost = gi->fc.get();
      o.seed = 11 + gi->inst.sinks.size();
      if (sparse) o.dense_state_budget_bytes = 0;
      jobs.push_back(Job{std::to_string(gi->inst.sinks.size()) + "-sink " +
                             (sparse ? "sparse" : "dense"),
                         &gi->inst, o});
    }
  }
  for (const bool sparse : {false, true}) {
    SolverOptions o;
    o.future_cost = &box.oi->future_cost();
    if (sparse) o.dense_state_budget_bytes = 0;
    jobs.push_back(Job{std::string("8-sink box ") +
                           (sparse ? "sparse" : "dense"),
                       &box.oi->instance(), o});
  }

  std::vector<SolveResult> want;
  for (const Job& j : jobs) {
    SolverScratch fresh;
    want.push_back(solve_cost_distance(*j.inst, j.opts, &fresh));
  }

  // Cancels the 30-sink solve at its first merge: the unwind leaves the
  // scratch's queue, assembler and search states mid-solve. The next solve
  // is of another instance, so a leftover entry cannot coincide with one
  // that solve would push itself.
  std::atomic<bool> cancel{false};
  SolveControls controls;
  controls.cancel = &cancel;
  controls.cancel_poll_interval = 1;
  controls.on_merge = [&cancel](const MergeTick&) { cancel.store(true); };
  const Job& cancelled = jobs[4];
  ASSERT_EQ(cancelled.inst->sinks.size(), 30u);

  SolverScratch scratch;
  const auto run_schedule = [&](bool measure) {
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      if (jobs[k].inst != cancelled.inst) {
        cancel.store(false);
        EXPECT_THROW(
            solve_cost_distance(*cancelled.inst, cancelled.opts, &scratch,
                                &controls),
            SolveCancelled);
      }
      t_allocations = 0;
      t_counting = measure;
      SolveResult got = solve_cost_distance(*jobs[k].inst, jobs[k].opts,
                                            &scratch);
      t_counting = false;
      expect_identical(got, want[k], jobs[k].name);
      if (measure) {
        EXPECT_EQ(t_allocations, result_blocks(got))
            << jobs[k].name << ": a warm solve allocated beyond its result";
      }
    }
  };
  // The warm-up pass sizes every recycled structure for the schedule; the
  // second pass repeats it and must allocate nothing else.
  run_schedule(/*measure=*/false);
  run_schedule(/*measure=*/true);
}

/// Heap blocks of an OracleOutcome: one per non-empty vector.
std::size_t outcome_blocks(const OracleOutcome& o) {
  return (o.eval.sink_delays.empty() ? 0 : 1) +
         (o.eval.node_lambda.empty() ? 0 : 1) +
         (o.grid_edges.empty() ? 0 : 1);
}

/// Heap blocks of a SteinerTree: the part of a SolveResult that
/// run_method maps into grid edges and then drops.
std::size_t tree_blocks(const SteinerTree& t) {
  std::size_t n = t.nodes.empty() ? 0 : 1;
  for (const SteinerTree::Node& node : t.nodes) {
    n += node.up_path.empty() ? 0 : 1;
  }
  n += t.children.empty() ? 0 : 1;
  for (const auto& c : t.children) n += c.empty() ? 0 : 1;
  return n;
}

TEST(SolverAllocations, WarmRouteRoundNetAllocatesOnlyItsOutcome) {
  // A router lane routing net after net: once the lane has met the largest
  // window and own route of the schedule, rebuilding the window (its slot
  // plane and class table), the instance and the own-usage map allocates
  // nothing, and the solve allocates only its result. The outcome's
  // vectors are the result's own (moved, and the tree's edges mapped to
  // grid ids in place), so a warm call allocates exactly the outcome plus
  // the solve's tree.
  ChipConfig c;
  c.name = "alloc";
  c.num_nets = 30;
  c.num_layers = 4;
  c.nx = c.ny = 20;
  c.capacity = 10.0;
  c.seed = 7;
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  CongestionCosts costs(grid);
  OracleParams params;
  params.dbif = 2.0;

  // Commit one route per net, so prices are uneven and every net has usage
  // of its own to exclude.
  std::vector<std::vector<EdgeId>> routes(nl.nets.size());
  std::vector<std::vector<double>> weights(nl.nets.size());
  for (std::size_t i = 0; i < nl.nets.size(); ++i) {
    const Net& net = nl.nets[i];
    weights[i].assign(net.sinks.size(), 0.5 + 0.1 * static_cast<double>(i));
    if (net.sinks.empty()) continue;
    const OracleInstance oi(grid, costs, net, weights[i], params);
    routes[i] = run_method(oi, SteinerMethod::kCD, params).grid_edges;
    costs.add_usage(routes[i], +1.0);
  }

  OracleLane lane;
  constexpr std::uint64_t kOptionsSeed = 3;
  constexpr int kRound = 2;
  const auto run_schedule = [&](bool measure) {
    for (std::size_t i = 0; i < nl.nets.size(); ++i) {
      const Net& net = nl.nets[i];
      if (net.sinks.empty()) continue;
      for (const bool exclude : {false, true}) {
        const std::span<const EdgeId> own =
            exclude ? std::span<const EdgeId>(routes[i])
                    : std::span<const EdgeId>();
        t_allocations = 0;
        t_counting = measure;
        const OracleOutcome out = route_round_net(
            lane, grid, costs, net, weights[i], own, SteinerMethod::kCD,
            params, kOptionsSeed, kRound, nullptr, nullptr);
        t_counting = false;
        if (!measure) continue;
        // The reference: the lane's instance, still in place, solved on a
        // fresh scratch with the options run_method uses.
        SolverOptions o = params.cd;
        o.seed = net_round_seed(kOptionsSeed, net.id, kRound);
        o.future_cost = &lane.oracle.future_cost();
        SolverScratch fresh;
        const SolveResult want =
            solve_cost_distance(lane.oracle.instance(), o, &fresh);
        const std::string what = "net " + std::to_string(i) +
                                 (exclude ? " excluding own usage" : "");
        EXPECT_TRUE(same_bits(out.eval.objective, want.eval.objective))
            << what;
        EXPECT_EQ(out.grid_edges,
                  lane.oracle.window().to_grid_edges(want.tree.all_edges()))
            << what;
        EXPECT_EQ(t_allocations,
                  outcome_blocks(out) + tree_blocks(want.tree))
            << what << ": a warm route_round_net allocated beyond its outcome";
      }
    }
  };
  run_schedule(/*measure=*/false);
  run_schedule(/*measure=*/true);
}

TEST(SolverAllocations, CountingAllocatorCountsVectors) {
  // Guards the harness itself: a counted region sees a vector's block.
  t_allocations = 0;
  t_counting = true;
  std::vector<int> v(16);
  t_counting = false;
  // Escape the block so the allocation cannot be elided.
  static void* volatile escaped = nullptr;
  escaped = v.data();
  EXPECT_EQ(t_allocations, 1u);
  EXPECT_NE(escaped, nullptr);
}

}  // namespace
}  // namespace cdst
