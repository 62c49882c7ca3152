// Pinned solver work counters: a fixed small slice of the router's oracle
// work, with its deterministic counters asserted exactly. Wall time on a
// shared host swings by 15-25% between runs; labels settled and relaxed do
// not swing at all, so a change that moves them (on purpose or not) shows
// here first. A change that moves a counter on purpose updates the
// expectation below and says why in CHANGES.md.
//
// The slice: paper chip c4 at scale 0.001 with its repeater-chain dbif,
// 2 warm batched CD rounds, then every net's OracleInstance solved against
// the warm prices twice — once with the net's route ripped up (the batched
// rule) and once with its own usage priced out of the window (the sharded
// rule, CongestionCosts::price_excluding). Every cdst target compiles with
// floating-point contraction off, so the values hold on FMA builds too.
//
// The transport slice: the same chip in 2 sharded rounds (4 shards) through
// the in-process wire loopback behind a byte-counting decorator. It pins
// the protocol's message counts and Σ encoded bytes per message kind, and
// its results must equal the direct in-process session's.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <span>
#include <vector>

#include "api/cdst.h"
#include "dist/transport.h"
#include "grid/cost_model.h"
#include "route/netlist_gen.h"
#include "route/steiner_oracle.h"
#include "timing/repeater_chain.h"

namespace cdst {
namespace {

struct WorkCounters {
  std::uint64_t solves{0};
  std::uint64_t labels_settled{0};
  std::uint64_t labels_relaxed{0};
  std::uint64_t completions_popped{0};
  std::uint64_t completions_stale{0};
  double objective_sum{0.0};

  void add(const SolveResult& r) {
    ++solves;
    labels_settled += r.stats.labels_settled;
    labels_relaxed += r.stats.labels_relaxed;
    completions_popped += r.stats.completions_popped;
    completions_stale += r.stats.completions_stale;
    objective_sum += r.eval.objective;
  }
};

struct Slice {
  WorkCounters ripped_up;  ///< own route removed from the usage
  WorkCounters excluded;   ///< own usage priced out of the window
};

Slice run_slice() {
  const ChipConfig config = paper_chip_configs(0.001).at(3);
  const RoutingGrid grid = make_chip_grid(config);
  const Netlist netlist = generate_netlist(config, grid);
  std::vector<LayerSpec> layers = make_default_layer_stack(config.num_layers);
  apply_linear_delay_model(layers, BufferSpec{});

  RouterOptions ropts;
  ropts.method = SteinerMethod::kCD;
  ropts.oracle.dbif = compute_dbif(layers, BufferSpec{});
  ropts.seed = 1;
  Router warm(grid, netlist, ropts);
  const Status st = warm.run(2);
  EXPECT_TRUE(st.ok()) << st.to_string();
  const RouterResult state = std::move(warm).take_result();

  CongestionCosts costs(grid, ropts.congestion);
  for (const auto& route : state.routes) costs.add_usage(route, +1.0);

  Slice out;
  SolverScratch scratch;
  SparseMap<double> own_usage;
  std::size_t flat = 0;
  for (std::size_t i = 0; i < netlist.nets.size(); ++i) {
    const Net& net = netlist.nets[i];
    const std::size_t k = net.sinks.size();
    flat += k;
    if (k == 0) continue;
    const std::span<const double> weights(
        state.sink_weights.data() + flat - k, k);
    OracleParams params = ropts.oracle;
    params.seed = ropts.seed * 7919 + net.id;
    const auto solve = [&](const OracleInstance& oi) {
      SolverOptions opts = params.cd;
      opts.seed = params.seed;
      opts.future_cost = &oi.future_cost();
      return solve_cost_distance(oi.instance(), opts, &scratch);
    };

    const std::vector<EdgeId>& own = state.routes[i];
    own_usage.clear();
    for (const EdgeId e : own) {
      const RoutingGrid::EdgeInfo& info = grid.edge_info(e);
      own_usage[info.resource] += info.width;
    }
    out.excluded.add(solve(OracleInstance(grid, costs, net, weights, params,
                                          own.empty() ? nullptr : &own_usage)));

    costs.add_usage(own, -1.0);
    out.ripped_up.add(solve(OracleInstance(grid, costs, net, weights, params)));
    costs.add_usage(own, +1.0);
  }
  return out;
}

void print(const char* name, const WorkCounters& c) {
  std::printf("%s: solves %llu settled %llu relaxed %llu popped %llu "
              "stale %llu objective %.17g bits 0x%016llx\n",
              name, static_cast<unsigned long long>(c.solves),
              static_cast<unsigned long long>(c.labels_settled),
              static_cast<unsigned long long>(c.labels_relaxed),
              static_cast<unsigned long long>(c.completions_popped),
              static_cast<unsigned long long>(c.completions_stale),
              c.objective_sum,
              static_cast<unsigned long long>(
                  std::bit_cast<std::uint64_t>(c.objective_sum)));
}

void expect_pinned(const WorkCounters& c) {
  EXPECT_EQ(c.solves, 305u);
  EXPECT_EQ(c.labels_settled, 155550u);
  EXPECT_EQ(c.labels_relaxed, 266794u);
  EXPECT_EQ(c.completions_popped, 1510u);
  EXPECT_EQ(c.completions_stale, 221u);
  // 21135.773530978073
  EXPECT_EQ(std::bit_cast<std::uint64_t>(c.objective_sum),
            0x40d4a3f181881351ull);
}

TEST(WorkCounters, PinnedOnFixedSlice) {
  const Slice s = run_slice();
  print("ripped_up", s.ripped_up);
  print("excluded", s.excluded);
  // Both rules price every resource alike here: capacity units are whole
  // numbers, so usage minus the net's own is exact either way.
  EXPECT_EQ(s.excluded.labels_settled, s.ripped_up.labels_settled);
  EXPECT_EQ(s.excluded.labels_relaxed, s.ripped_up.labels_relaxed);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(s.excluded.objective_sum),
            std::bit_cast<std::uint64_t>(s.ripped_up.objective_sum));
  expect_pinned(s.ripped_up);
  expect_pinned(s.excluded);
}

/// Forwards to a transport and counts the protocol's messages and the
/// encoded bytes of each kind (the sizes every wire transport ships).
class CountingTransport final : public dist::ShardTransport {
 public:
  explicit CountingTransport(dist::ShardTransport& inner) : inner_(inner) {}

  const char* name() const override { return "counting"; }
  Status configure(const dist::WorkerSetupMsg& setup) override {
    ++configures;
    setup_bytes += setup.to_bytes().size();
    return inner_.configure(setup);
  }
  Status begin_round(const dist::PriceSnapshotMsg& snapshot) override {
    ++rounds;
    snapshot_bytes += snapshot.to_bytes().size();
    return inner_.begin_round(snapshot);
  }
  StatusOr<dist::ShardResultMsg> dispatch(
      const dist::ShardWorkMsg& work) override {
    const std::size_t sent = work.to_bytes().size();
    StatusOr<dist::ShardResultMsg> result = inner_.dispatch(work);
    const std::size_t received =
        result.ok() ? result->to_bytes().size() : std::size_t{0};
    const std::lock_guard<std::mutex> lock(mu_);
    ++dispatches;
    work_bytes += sent;
    result_bytes += received;
    return result;
  }

  std::uint64_t configures{0};
  std::uint64_t rounds{0};
  std::uint64_t dispatches{0};
  std::uint64_t setup_bytes{0};
  std::uint64_t snapshot_bytes{0};
  std::uint64_t work_bytes{0};
  std::uint64_t result_bytes{0};

 private:
  dist::ShardTransport& inner_;
  std::mutex mu_;
};

TEST(WorkCounters, TransportPinnedOnFixedSlice) {
  const ChipConfig config = paper_chip_configs(0.001).at(3);
  const RoutingGrid grid = make_chip_grid(config);
  const Netlist netlist = generate_netlist(config, grid);
  std::vector<LayerSpec> layers = make_default_layer_stack(config.num_layers);
  apply_linear_delay_model(layers, BufferSpec{});

  RouterOptions ropts;
  ropts.method = SteinerMethod::kCD;
  ropts.oracle.dbif = compute_dbif(layers, BufferSpec{});
  ropts.seed = 1;
  ropts.threads = 2;
  ropts.shards = 4;
  Router direct(grid, netlist, ropts);
  ASSERT_TRUE(direct.run(2).ok());
  const RouterResult want = direct.result();

  dist::InProcessTransport inner;
  CountingTransport counter(inner);
  ropts.transport = &counter;
  Router session(grid, netlist, ropts);
  const Status st = session.run(2);
  ASSERT_TRUE(st.ok()) << st.to_string();
  const RouterResult got = session.result();
  EXPECT_EQ(got.routes, want.routes);
  EXPECT_EQ(got.sink_delays, want.sink_delays);
  EXPECT_EQ(got.sink_weights, want.sink_weights);

  std::printf("transport: configures %llu rounds %llu dispatches %llu "
              "bytes setup %llu snapshot %llu work %llu result %llu\n",
              static_cast<unsigned long long>(counter.configures),
              static_cast<unsigned long long>(counter.rounds),
              static_cast<unsigned long long>(counter.dispatches),
              static_cast<unsigned long long>(counter.setup_bytes),
              static_cast<unsigned long long>(counter.snapshot_bytes),
              static_cast<unsigned long long>(counter.work_bytes),
              static_cast<unsigned long long>(counter.result_bytes));
  // One setup, one snapshot per round and one dispatch per span of
  // kSpanNets nets. Wire version 5: the setup ships no SL/PD topology
  // parameters, strict-budget flag, smoothing or per-solve seeds (41 B less
  // than version 4), and a work no shard count or tile (28 B less).
  EXPECT_EQ(counter.configures, 1u);
  EXPECT_EQ(counter.rounds, 2u);
  EXPECT_EQ(counter.dispatches, 156u);
  EXPECT_EQ(counter.setup_bytes, 34738u);
  EXPECT_EQ(counter.snapshot_bytes, 732840u);
  EXPECT_EQ(counter.work_bytes, 48612u);
  EXPECT_EQ(counter.result_bytes, 64668u);
}

}  // namespace
}  // namespace cdst
