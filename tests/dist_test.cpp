// Tests for the distributed shard-round layer (src/dist/): wire-format
// round-trips and corruption rejection, the shard executor's recycled
// lanes, the InProcessTransport serialization oracle and its span
// dispatches, and — on POSIX, where the cdst_shard_worker binary exists —
// the SubprocessTransport matrix: a sharded round through 1/2/4
// out-of-process workers must be bit-identical to the direct in-process
// round, and a worker killed mid-round must be absorbed by the shard retry
// path with identical final routes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "api/cdst.h"
#include "dist/shard_executor.h"
#include "dist/transport.h"
#include "dist/wire.h"
#include "grid/routing_grid.h"
#include "route/netlist_gen.h"
#include "route/sharding.h"
#include "test_instances.h"
#include "util/rng.h"
#include "util/thread_pool.h"

#if defined(CDST_FAULT_INJECTION)
#include "util/fault_injection.h"
#endif

#if defined(CDST_SHARD_WORKER_PATH)
#include "dist/subprocess_transport.h"
#endif

namespace cdst {
namespace {

ChipConfig dist_chip() {
  ChipConfig c;
  c.name = "dist-test";
  c.num_nets = 24;
  c.num_layers = 3;
  c.nx = c.ny = 12;
  c.capacity = 8.0;
  c.seed = 7;
  return c;
}

RouterOptions dist_router_options() {
  RouterOptions opts;
  opts.method = SteinerMethod::kCD;
  opts.seed = 5;
  opts.threads = 2;
  opts.shards = 4;
  return opts;
}

void expect_same_routing(const RouterResult& got, const RouterResult& want) {
  ASSERT_EQ(got.routes.size(), want.routes.size());
  for (std::size_t i = 0; i < got.routes.size(); ++i) {
    EXPECT_EQ(got.routes[i], want.routes[i]) << "net " << i;
  }
  ASSERT_EQ(got.sink_delays.size(), want.sink_delays.size());
  for (std::size_t s = 0; s < got.sink_delays.size(); ++s) {
    EXPECT_DOUBLE_EQ(got.sink_delays[s], want.sink_delays[s]) << "sink " << s;
    EXPECT_DOUBLE_EQ(got.sink_weights[s], want.sink_weights[s])
        << "sink " << s;
  }
}

// ----------------------------------------------------------- wire messages

dist::WorkerSetupMsg sample_setup(Rng& rng) {
  const ChipConfig c = dist_chip();
  const RoutingGrid grid = make_chip_grid(c);
  dist::WorkerSetupMsg setup;
  setup.nx = grid.nx();
  setup.ny = grid.ny();
  setup.layers = grid.layers();
  setup.via = grid.via();
  setup.netlist = generate_netlist(c, grid);
  setup.method = SteinerMethod::kCD;
  setup.oracle.dbif = 1.5;
  setup.oracle.window_margin = 3;
  setup.oracle.cd.use_astar = true;
  setup.oracle.cd.discount_components = false;
  setup.oracle.cd.better_steiner_placement = false;
  setup.oracle.cd.encourage_root = false;
  setup.oracle.cd.dense_state_budget_bytes = 1 << 20;
  setup.oracle.cd.queue = QueueKind::kSingleLazy;
  setup.congestion.price_at_full = 6.0;
  setup.options_seed = rng();
  return setup;
}

dist::ShardWorkMsg sample_work(Rng& rng) {
  dist::ShardWorkMsg work;
  work.round = 3;
  work.shard = 1;
  for (std::uint32_t n = 0; n < 5; ++n) {
    dist::ShardWorkMsg::NetWork nw;
    nw.net = n * 3;
    for (int s = 0; s < 3; ++s) {
      nw.sink_weights.push_back(static_cast<double>(rng.uniform(1000)) / 64);
    }
    for (int e = 0; e < 8; ++e) {
      nw.route_edges.push_back(static_cast<std::uint32_t>(rng.uniform(500)));
    }
    work.nets.push_back(nw);
  }
  return work;
}

dist::ShardResultMsg sample_result(Rng& rng) {
  dist::ShardResultMsg result;
  result.round = 3;
  result.shard = 1;
  for (std::uint32_t n = 0; n < 5; ++n) {
    dist::ShardResultMsg::NetResult nr;
    nr.net = n * 3;
    for (int e = 0; e < 6; ++e) {
      nr.route_edges.push_back(static_cast<std::uint32_t>(rng.uniform(500)));
    }
    for (int s = 0; s < 3; ++s) {
      nr.sink_delays.push_back(static_cast<double>(rng.uniform(1 << 20)));
    }
    result.nets.push_back(nr);
  }
  return result;
}

dist::PriceSnapshotMsg sample_snapshot(Rng& rng) {
  dist::PriceSnapshotMsg snapshot;
  snapshot.round = 7;
  for (int i = 0; i < 257; ++i) {
    snapshot.usage.push_back(static_cast<double>(rng.uniform(1 << 16)) / 7.0);
  }
  return snapshot;
}

TEST(DistWireTest, SetupRoundTripsBitIdentically) {
  Rng rng(11);
  const dist::WorkerSetupMsg setup = sample_setup(rng);
  const StatusOr<dist::WorkerSetupMsg> back =
      dist::WorkerSetupMsg::from_bytes(setup.to_bytes());
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back->nx, setup.nx);
  EXPECT_EQ(back->ny, setup.ny);
  ASSERT_EQ(back->layers.size(), setup.layers.size());
  for (std::size_t l = 0; l < setup.layers.size(); ++l) {
    EXPECT_EQ(back->layers[l].name, setup.layers[l].name);
    EXPECT_EQ(back->layers[l].dir, setup.layers[l].dir);
    EXPECT_EQ(back->layers[l].capacity, setup.layers[l].capacity);
    ASSERT_EQ(back->layers[l].wire_types.size(),
              setup.layers[l].wire_types.size());
    for (std::size_t w = 0; w < setup.layers[l].wire_types.size(); ++w) {
      EXPECT_EQ(back->layers[l].wire_types[w].name,
                setup.layers[l].wire_types[w].name);
      EXPECT_EQ(back->layers[l].wire_types[w].unit_cost,
                setup.layers[l].wire_types[w].unit_cost);
    }
  }
  ASSERT_EQ(back->netlist.nets.size(), setup.netlist.nets.size());
  for (std::size_t i = 0; i < setup.netlist.nets.size(); ++i) {
    const Net& a = back->netlist.nets[i];
    const Net& b = setup.netlist.nets[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.source.x, b.source.x);
    EXPECT_EQ(a.source.y, b.source.y);
    EXPECT_EQ(a.source.z, b.source.z);
    ASSERT_EQ(a.sinks.size(), b.sinks.size());
    for (std::size_t s = 0; s < b.sinks.size(); ++s) {
      EXPECT_EQ(a.sinks[s].pos.x, b.sinks[s].pos.x);
      EXPECT_EQ(a.sinks[s].rat, b.sinks[s].rat);
    }
  }
  EXPECT_EQ(back->method, setup.method);
  EXPECT_EQ(back->oracle.dbif, setup.oracle.dbif);
  EXPECT_EQ(back->oracle.window_margin, setup.oracle.window_margin);
  EXPECT_EQ(back->oracle.cd.use_astar, setup.oracle.cd.use_astar);
  EXPECT_EQ(back->oracle.cd.discount_components,
            setup.oracle.cd.discount_components);
  EXPECT_EQ(back->oracle.cd.better_steiner_placement,
            setup.oracle.cd.better_steiner_placement);
  EXPECT_EQ(back->oracle.cd.encourage_root, setup.oracle.cd.encourage_root);
  EXPECT_EQ(back->oracle.cd.dense_state_budget_bytes,
            setup.oracle.cd.dense_state_budget_bytes);
  EXPECT_EQ(back->oracle.cd.queue, setup.oracle.cd.queue);
  EXPECT_EQ(back->oracle.cd.future_cost, nullptr);
  EXPECT_EQ(back->oracle.cd.shared_dense_budget, nullptr);
  EXPECT_EQ(back->congestion.price_at_full, setup.congestion.price_at_full);
  EXPECT_EQ(back->options_seed, setup.options_seed);
}

TEST(DistWireTest, RoundMessagesRoundTripBitIdentically) {
  Rng rng(13);

  const dist::PriceSnapshotMsg snapshot = sample_snapshot(rng);
  const StatusOr<dist::PriceSnapshotMsg> snap_back =
      dist::PriceSnapshotMsg::from_bytes(snapshot.to_bytes());
  ASSERT_TRUE(snap_back.ok()) << snap_back.status().to_string();
  EXPECT_EQ(snap_back->round, snapshot.round);
  EXPECT_EQ(snap_back->usage, snapshot.usage);

  const dist::ShardWorkMsg work = sample_work(rng);
  const StatusOr<dist::ShardWorkMsg> work_back =
      dist::ShardWorkMsg::from_bytes(work.to_bytes());
  ASSERT_TRUE(work_back.ok()) << work_back.status().to_string();
  EXPECT_EQ(work_back->round, work.round);
  EXPECT_EQ(work_back->shard, work.shard);
  ASSERT_EQ(work_back->nets.size(), work.nets.size());
  for (std::size_t i = 0; i < work.nets.size(); ++i) {
    EXPECT_EQ(work_back->nets[i].net, work.nets[i].net);
    EXPECT_EQ(work_back->nets[i].sink_weights, work.nets[i].sink_weights);
    EXPECT_EQ(work_back->nets[i].route_edges, work.nets[i].route_edges);
  }

  const dist::ShardResultMsg result = sample_result(rng);
  const StatusOr<dist::ShardResultMsg> result_back =
      dist::ShardResultMsg::from_bytes(result.to_bytes());
  ASSERT_TRUE(result_back.ok()) << result_back.status().to_string();
  EXPECT_EQ(result_back->round, result.round);
  EXPECT_EQ(result_back->shard, result.shard);
  ASSERT_EQ(result_back->nets.size(), result.nets.size());
  for (std::size_t i = 0; i < result.nets.size(); ++i) {
    EXPECT_EQ(result_back->nets[i].net, result.nets[i].net);
    EXPECT_EQ(result_back->nets[i].route_edges, result.nets[i].route_edges);
    EXPECT_EQ(result_back->nets[i].sink_delays, result.nets[i].sink_delays);
  }

  dist::WorkerErrorMsg error;
  error.code = StatusCode::kUnavailable;
  error.message = "worker went away";
  const StatusOr<dist::WorkerErrorMsg> error_back =
      dist::WorkerErrorMsg::from_bytes(error.to_bytes());
  ASSERT_TRUE(error_back.ok()) << error_back.status().to_string();
  EXPECT_EQ(error_back->code, error.code);
  EXPECT_EQ(error_back->message, error.message);
}

TEST(DistWireTest, WorkerDeadlineAndBudgetReenterAsInternal) {
  // A worker's kDeadlineExceeded/kResourceExhausted are ITS verdicts, not
  // this process's: to_status must re-type them (rule status-origin keeps
  // the canonical origins unique to the audited helpers).
  dist::WorkerErrorMsg deadline;
  deadline.code = StatusCode::kDeadlineExceeded;
  deadline.message = "over budget";
  EXPECT_EQ(deadline.to_status().code(), StatusCode::kInternal);
  dist::WorkerErrorMsg budget;
  budget.code = StatusCode::kResourceExhausted;
  EXPECT_EQ(budget.to_status().code(), StatusCode::kInternal);
  dist::WorkerErrorMsg transient;
  transient.code = StatusCode::kUnavailable;
  EXPECT_EQ(transient.to_status().code(), StatusCode::kUnavailable);
}

TEST(DistWireTest, TruncationIsAlwaysRejected) {
  // Every strict prefix of a valid encoding must parse to kInvalidArgument:
  // the exact-consumption discipline means no prefix can be a valid message.
  Rng rng(17);
  const std::vector<std::vector<std::uint8_t>> encodings = {
      sample_snapshot(rng).to_bytes(),
      sample_work(rng).to_bytes(),
      sample_result(rng).to_bytes(),
      dist::WorkerErrorMsg{StatusCode::kInternal, "boom"}.to_bytes(),
  };
  for (const std::vector<std::uint8_t>& bytes : encodings) {
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      const std::span<const std::uint8_t> prefix(bytes.data(), len);
      EXPECT_EQ(dist::PriceSnapshotMsg::from_bytes(prefix).status().code(),
                StatusCode::kInvalidArgument)
          << "prefix " << len;
      EXPECT_EQ(dist::ShardWorkMsg::from_bytes(prefix).status().code(),
                StatusCode::kInvalidArgument)
          << "prefix " << len;
      EXPECT_EQ(dist::ShardResultMsg::from_bytes(prefix).status().code(),
                StatusCode::kInvalidArgument)
          << "prefix " << len;
      EXPECT_EQ(dist::WorkerErrorMsg::from_bytes(prefix).status().code(),
                StatusCode::kInvalidArgument)
          << "prefix " << len;
    }
  }
  // The same for the large setup message, sampled every 7 bytes for speed.
  const std::vector<std::uint8_t> setup_bytes = sample_setup(rng).to_bytes();
  for (std::size_t len = 0; len < setup_bytes.size(); len += 7) {
    const std::span<const std::uint8_t> prefix(setup_bytes.data(), len);
    EXPECT_EQ(dist::WorkerSetupMsg::from_bytes(prefix).status().code(),
              StatusCode::kInvalidArgument)
        << "prefix " << len;
  }
}

TEST(DistWireTest, BitFlipsNeverCrashTheParsers) {
  // Single-byte corruption anywhere in the stream must yield either a clean
  // parse (a flipped payload double is still a double) or kInvalidArgument —
  // never a crash or a hang (this is the ASan-lane payoff).
  Rng rng(19);
  std::vector<std::uint8_t> bytes = sample_snapshot(rng).to_bytes();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] ^= 0x3C;
    const StatusOr<dist::PriceSnapshotMsg> parsed =
        dist::PriceSnapshotMsg::from_bytes(bytes);
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
          << "byte " << i;
    }
    bytes[i] ^= 0x3C;
  }
  const dist::ShardWorkMsg work = sample_work(rng);
  bytes = work.to_bytes();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] ^= 0xA5;
    const StatusOr<dist::ShardWorkMsg> parsed =
        dist::ShardWorkMsg::from_bytes(bytes);
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
          << "byte " << i;
    }
    bytes[i] ^= 0xA5;
  }
  const dist::ShardResultMsg result = sample_result(rng);
  bytes = result.to_bytes();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] ^= 0x5A;
    const StatusOr<dist::ShardResultMsg> parsed =
        dist::ShardResultMsg::from_bytes(bytes);
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
          << "byte " << i;
    }
    bytes[i] ^= 0x5A;
  }
}

// ---------------------------------------------------------- shard executor

/// Wraps a transport and records what the round loop sends it: the setup,
/// each round's snapshot and every dispatched work.
class RecordingTransport final : public dist::ShardTransport {
 public:
  explicit RecordingTransport(dist::ShardTransport& inner) : inner_(inner) {}

  const char* name() const override { return "recording"; }
  Status configure(const dist::WorkerSetupMsg& setup) override {
    this->setup = setup;
    return inner_.configure(setup);
  }
  Status begin_round(const dist::PriceSnapshotMsg& snapshot) override {
    snapshots.push_back(snapshot);
    return inner_.begin_round(snapshot);
  }
  StatusOr<dist::ShardResultMsg> dispatch(
      const dist::ShardWorkMsg& work) override {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      works.push_back(work);
    }
    return inner_.dispatch(work);
  }

  std::optional<dist::WorkerSetupMsg> setup;
  std::vector<dist::PriceSnapshotMsg> snapshots;
  std::vector<dist::ShardWorkMsg> works;  ///< read only between runs

 private:
  dist::ShardTransport& inner_;
  std::mutex mu_;
};

/// Round 1 of a dist_chip session through the loopback transport: the
/// setup, the round's snapshot and its spans, whose nets carry committed
/// routes.
struct RecordedRound {
  dist::WorkerSetupMsg setup;
  dist::PriceSnapshotMsg snapshot;
  std::vector<dist::ShardWorkMsg> works;
};

RecordedRound record_second_round() {
  const ChipConfig c = dist_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  dist::InProcessTransport inner;
  RecordingTransport recorder(inner);
  RouterOptions opts = dist_router_options();
  opts.transport = &recorder;
  Router session(grid, nl, opts);
  EXPECT_TRUE(session.run(2).ok());
  RecordedRound out;
  out.setup = *recorder.setup;
  out.snapshot = recorder.snapshots.back();
  for (const dist::ShardWorkMsg& work : recorder.works) {
    if (work.round == 1) out.works.push_back(work);
  }
  return out;
}

/// A context built for `rec`'s setup with its round loaded.
std::unique_ptr<dist::ShardContext> loaded_context(const RecordedRound& rec) {
  StatusOr<std::unique_ptr<dist::ShardContext>> ctx =
      dist::make_shard_context(rec.setup);
  EXPECT_TRUE(ctx.ok()) << ctx.status().to_string();
  const Status st = dist::load_snapshot(**ctx, rec.snapshot);
  EXPECT_TRUE(st.ok()) << st.to_string();
  return std::move(*ctx);
}

std::size_t largest_sink_count(const dist::ShardWorkMsg& work) {
  std::size_t most = 0;
  for (const dist::ShardWorkMsg::NetWork& nw : work.nets) {
    most = std::max(most, nw.sink_weights.size());
  }
  return most;
}

void expect_same_result(const dist::ShardResultMsg& got,
                        const dist::ShardResultMsg& want) {
  EXPECT_EQ(got.round, want.round);
  EXPECT_EQ(got.shard, want.shard);
  ASSERT_EQ(got.nets.size(), want.nets.size());
  for (std::size_t k = 0; k < want.nets.size(); ++k) {
    EXPECT_EQ(got.nets[k].net, want.nets[k].net);
    EXPECT_EQ(got.nets[k].route_edges, want.nets[k].route_edges)
        << "net " << want.nets[k].net;
    EXPECT_EQ(got.nets[k].sink_delays, want.nets[k].sink_delays)
        << "net " << want.nets[k].net;
  }
}

/// The reference: `work` on a context built for it alone.
dist::ShardResultMsg execute_fresh(const RecordedRound& rec,
                                   const dist::ShardWorkMsg& work) {
  const std::unique_ptr<dist::ShardContext> ctx = loaded_context(rec);
  StatusOr<dist::ShardResultMsg> result = dist::execute_shard(*ctx, work);
  EXPECT_TRUE(result.ok()) << result.status().to_string();
  return std::move(*result);
}

/// A two-net work: the first recorded net, then the recorded net with the
/// longest committed route.
dist::ShardWorkMsg two_net_work(const RecordedRound& rec) {
  const dist::ShardWorkMsg::NetWork* longest = nullptr;
  for (const dist::ShardWorkMsg& work : rec.works) {
    for (const dist::ShardWorkMsg::NetWork& nw : work.nets) {
      if (longest == nullptr ||
          nw.route_edges.size() > longest->route_edges.size()) {
        longest = &nw;
      }
    }
  }
  dist::ShardWorkMsg out = rec.works.front();
  out.nets.resize(1);
  out.nets.push_back(*longest);
  return out;
}

TEST(DistExecutorTest, RecycledLanesMatchFreshContexts) {
  const RecordedRound rec = record_second_round();
  ASSERT_GE(rec.works.size(), 4u);

  // Spans of every shard, smallest nets first so the largest net arrives on
  // a lane warmed by small ones; then a two-net work; then the same work
  // twice.
  std::vector<dist::ShardWorkMsg> seq = rec.works;
  std::stable_sort(seq.begin(), seq.end(), [](const auto& a, const auto& b) {
    return largest_sink_count(a) < largest_sink_count(b);
  });
  seq.push_back(two_net_work(rec));
  seq.push_back(seq.front());
  seq.push_back(seq.front());

  std::vector<dist::ShardResultMsg> want;
  for (const dist::ShardWorkMsg& work : seq) {
    want.push_back(execute_fresh(rec, work));
  }

  // One context, one calling thread: every work recycles the same lane.
  const std::unique_ptr<dist::ShardContext> shared = loaded_context(rec);
  for (std::size_t k = 0; k < seq.size(); ++k) {
    SCOPED_TRACE(testing::Message() << "work " << k);
    StatusOr<dist::ShardResultMsg> got = dist::execute_shard(*shared, seq[k]);
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    expect_same_result(*got, want[k]);
  }

  // Four threads on one context run the whole sequence concurrently; every
  // call leases whichever lane is free.
  const std::unique_ptr<dist::ShardContext> concurrent = loaded_context(rec);
  constexpr int kThreads = 4;
  std::vector<std::vector<std::optional<dist::ShardResultMsg>>> got(
      kThreads, std::vector<std::optional<dist::ShardResultMsg>>(seq.size()));
  ThreadPool pool(kThreads);
  pool.parallel_for(0, kThreads, [&](std::size_t t) {
    for (std::size_t k = 0; k < seq.size(); ++k) {
      StatusOr<dist::ShardResultMsg> r =
          dist::execute_shard(*concurrent, seq[k]);
      if (r.ok()) got[t][k] = std::move(*r);
    }
  });
  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t k = 0; k < seq.size(); ++k) {
      SCOPED_TRACE(testing::Message() << "thread " << t << " work " << k);
      ASSERT_TRUE(got[t][k].has_value());
      expect_same_result(*got[t][k], want[k]);
    }
  }
}

TEST(DistExecutorTest, SnapshotLoadRefusesBadUsageAndOtherRounds) {
  const RecordedRound rec = record_second_round();
  const std::unique_ptr<dist::ShardContext> ctx = loaded_context(rec);
  const dist::ShardWorkMsg& work = rec.works.front();
  const dist::ShardResultMsg want = execute_fresh(rec, work);

  // Work for another round than the loaded one.
  dist::ShardWorkMsg other_round = work;
  other_round.round = rec.snapshot.round + 1;
  EXPECT_EQ(dist::execute_shard(*ctx, other_round).status().code(),
            StatusCode::kFailedPrecondition);

  // Each bad usage is refused and unloads the round a good load left.
  std::vector<dist::PriceSnapshotMsg> bad(6, rec.snapshot);
  bad[0].usage.pop_back();
  bad[1].usage.push_back(0.0);
  bad[2].usage[3] = std::numeric_limits<double>::quiet_NaN();
  bad[3].usage[3] = -1.0;
  bad[4].usage[3] = std::numeric_limits<double>::infinity();
  bad[5].usage.clear();
  for (std::size_t k = 0; k < bad.size(); ++k) {
    SCOPED_TRACE(testing::Message() << "bad snapshot " << k);
    ASSERT_TRUE(dist::load_snapshot(*ctx, rec.snapshot).ok());
    StatusOr<dist::ShardResultMsg> got = dist::execute_shard(*ctx, work);
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    expect_same_result(*got, want);

    EXPECT_EQ(dist::load_snapshot(*ctx, bad[k]).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(dist::execute_shard(*ctx, work).status().code(),
              StatusCode::kFailedPrecondition);
  }
}

#if defined(CDST_FAULT_INJECTION)

TEST(DistExecutorTest, FaultMidSpanLeavesTheLaneLikeFresh) {
  const RecordedRound rec = record_second_round();
  const dist::ShardWorkMsg two_nets = two_net_work(rec);
  const std::unique_ptr<dist::ShardContext> shared = loaded_context(rec);

  // The second net's window rebuild faults after the first net routed on
  // the same lane.
  FaultRegistry& reg = FaultRegistry::instance();
  reg.disarm_all();
  FaultPolicy second;
  second.n = 2;
  reg.arm("window.rebuild", second);
  const StatusOr<dist::ShardResultMsg> faulted =
      dist::execute_shard(*shared, two_nets);
  reg.disarm_all();
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), StatusCode::kUnavailable);

  for (const dist::ShardWorkMsg* work : {&two_nets, &rec.works.front()}) {
    StatusOr<dist::ShardResultMsg> got = dist::execute_shard(*shared, *work);
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    expect_same_result(*got, execute_fresh(rec, *work));
  }
}

#endif  // CDST_FAULT_INJECTION

// ----------------------------------------------------- in-process transport

TEST(DistTransportTest, DispatchBeforeConfigureIsFailedPrecondition) {
  Rng rng(23);
  dist::InProcessTransport transport;
  const StatusOr<dist::ShardResultMsg> r =
      transport.dispatch(sample_work(rng));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(DistTransportTest, InProcessRoundsBitIdenticalToDirectAndToOneShard) {
  const ChipConfig c = dist_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  const RouterOptions opts = dist_router_options();

  Router direct(grid, nl, opts);
  ASSERT_TRUE(direct.run(3).ok());
  const RouterResult want = direct.result();

  // Every round through the serialization loopback: any field a message
  // fails to carry shows up as a routing diff here.
  dist::InProcessTransport transport;
  RouterOptions topts = opts;
  topts.transport = &transport;
  Router viaTransport(grid, nl, topts);
  ASSERT_TRUE(viaTransport.run(3).ok());
  expect_same_routing(viaTransport.result(), want);

  // Sharding is pure scheduling: one shard through the transport lands on
  // the same routes too.
  RouterOptions one = topts;
  one.shards = 1;
  Router oneShard(grid, nl, one);
  ASSERT_TRUE(oneShard.run(3).ok());
  expect_same_routing(oneShard.result(), want);
}

TEST(DistTransportTest, SetOptionsReconfiguresTheTransport) {
  const ChipConfig c = dist_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  const RouterOptions opts = dist_router_options();

  RouterOptions changed = opts;
  changed.congestion.price_at_full = 12.0;

  Router direct(grid, nl, opts);
  ASSERT_TRUE(direct.run(1).ok());
  ASSERT_TRUE(direct.set_options(changed).ok());
  ASSERT_TRUE(direct.run(2).ok());
  const RouterResult want = direct.result();

  // The transport must see the new congestion knobs after set_options — a
  // stale worker world would diverge from the direct session here.
  dist::InProcessTransport transport;
  RouterOptions topts = opts;
  topts.transport = &transport;
  RouterOptions tchanged = changed;
  tchanged.transport = &transport;
  Router viaTransport(grid, nl, topts);
  ASSERT_TRUE(viaTransport.run(1).ok());
  ASSERT_TRUE(viaTransport.set_options(tchanged).ok());
  ASSERT_TRUE(viaTransport.run(2).ok());
  expect_same_routing(viaTransport.result(), want);
}

TEST(DistTransportTest, SpanDispatchCoversEveryNetOnceWithOneEventPerShard) {
  ChipConfig c = dist_chip();
  c.num_nets = 96;
  c.nx = c.ny = 20;
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  RouterOptions opts = dist_router_options();
  opts.threads = 4;
  opts.shards = 8;

  Router direct(grid, nl, opts);
  ASSERT_TRUE(direct.run(2).ok());

  struct ShardEvents final : EventSink {
    std::vector<RouterShardEvent> events;
    void on_router_shard(const RouterShardEvent& event) override {
      events.push_back(event);
    }
  } sink;
  RunControl control;
  control.events = &sink;
  dist::InProcessTransport inner;
  RecordingTransport recorder(inner);
  RouterOptions topts = opts;
  topts.transport = &recorder;
  Router session(grid, nl, topts);
  ASSERT_TRUE(session.run(2, control).ok());
  expect_same_routing(session.result(), direct.result());
  testutil::expect_router_invariants(grid, nl, opts.congestion,
                                     session.result());

  const ShardMap map = assign_nets_to_shards(grid, nl, opts.shards);
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(testing::Message() << "round " << round);
    std::vector<int> dispatched(nl.nets.size(), 0);
    for (const dist::ShardWorkMsg& work : recorder.works) {
      if (work.round != round) continue;
      ASSERT_GE(work.shard, 0);
      ASSERT_LT(work.shard, opts.shards);
      ASSERT_FALSE(work.nets.empty());
      // A contiguous ascending run of the shard's net list (sink-less nets
      // are never packed), at most one span long.
      const std::vector<std::uint32_t>& mine =
          map.nets[static_cast<std::size_t>(work.shard)];
      const auto first =
          std::find(mine.begin(), mine.end(), work.nets.front().net);
      ASSERT_NE(first, mine.end());
      auto pos = first;
      for (const dist::ShardWorkMsg::NetWork& nw : work.nets) {
        while (pos != mine.end() && nl.nets[*pos].sinks.empty()) ++pos;
        ASSERT_NE(pos, mine.end());
        EXPECT_EQ(nw.net, *pos);
        ++dispatched[nw.net];
        ++pos;
      }
      EXPECT_LE(pos - first, kSpanNets);
    }
    for (std::size_t i = 0; i < nl.nets.size(); ++i) {
      EXPECT_EQ(dispatched[i], nl.nets[i].sinks.empty() ? 0 : 1)
          << "net " << i;
    }

    std::vector<int> per_shard(map.nets.size(), 0);
    for (const RouterShardEvent& e : sink.events) {
      if (e.round != round) continue;
      ++per_shard[static_cast<std::size_t>(e.shard)];
      EXPECT_GT(e.dispatch_seconds, 0.0) << "shard " << e.shard;
    }
    for (std::size_t sh = 0; sh < map.nets.size(); ++sh) {
      EXPECT_EQ(per_shard[sh], map.nets[sh].empty() ? 0 : 1)
          << "shard " << sh;
    }
  }
}

// ---------------------------------------------------- subprocess transport

#if defined(CDST_SHARD_WORKER_PATH)

TEST(DistSubprocessTest, WorkerMatrixBitIdenticalToDirect) {
  const ChipConfig c = dist_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  const RouterOptions opts = dist_router_options();

  Router direct(grid, nl, opts);
  ASSERT_TRUE(direct.run(2).ok());
  const RouterResult want = direct.result();

  for (const int workers : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    dist::SubprocessTransportOptions sopts;
    sopts.worker_path = CDST_SHARD_WORKER_PATH;
    sopts.workers = workers;
    dist::SubprocessTransport transport(sopts);
    RouterOptions topts = opts;
    topts.transport = &transport;
    Router session(grid, nl, topts);
    ASSERT_TRUE(session.run(2).ok());
    expect_same_routing(session.result(), want);
  }

  // shards == 1 through a subprocess as well: the degenerate partition.
  dist::SubprocessTransportOptions sopts;
  sopts.worker_path = CDST_SHARD_WORKER_PATH;
  sopts.workers = 1;
  dist::SubprocessTransport transport(sopts);
  RouterOptions one = opts;
  one.shards = 1;
  one.transport = &transport;
  Router oneShard(grid, nl, one);
  ASSERT_TRUE(oneShard.run(2).ok());
  expect_same_routing(oneShard.result(), want);
}

/// Kills the worker pool once, from the first shard event of the run — i.e.
/// mid-round, while later shards still have dispatches to make.
struct KillOnFirstShard final : EventSink {
  dist::SubprocessTransport* transport{nullptr};
  bool killed{false};
  std::vector<FaultEvent> faults;

  void on_router_shard(const RouterShardEvent& event) override {
    (void)event;
    if (!killed) {
      killed = true;
      transport->kill_workers_for_test();
    }
  }
  void on_fault(const FaultEvent& event) override {
    faults.push_back(event);
  }
};

TEST(DistSubprocessTest, KilledWorkerMidRoundRecoversBitIdentically) {
  const ChipConfig c = dist_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  const RouterOptions opts = dist_router_options();

  Router direct(grid, nl, opts);
  ASSERT_TRUE(direct.run(2).ok());
  const RouterResult want = direct.result();

  dist::SubprocessTransportOptions sopts;
  sopts.worker_path = CDST_SHARD_WORKER_PATH;
  sopts.workers = 2;
  dist::SubprocessTransport transport(sopts);
  KillOnFirstShard sink;
  sink.transport = &transport;
  RunControl control;
  control.events = &sink;

  RouterOptions topts = opts;
  topts.transport = &transport;
  Router session(grid, nl, topts);
  // The kill lands mid-round: at least one later dispatch hits a dead
  // worker, fails kUnavailable, and the retry re-dispatches the spans not
  // yet done to respawned workers — with the same frozen inputs, so the
  // final routes are bit-identical to the never-killed run.
  ASSERT_TRUE(session.run(2, control).ok());
  EXPECT_TRUE(sink.killed);
  ASSERT_GE(sink.faults.size(), 1u);
  for (const FaultEvent& fault : sink.faults) {
    EXPECT_STREQ(fault.stage, "dist.transport");
    EXPECT_EQ(fault.status, StatusCode::kUnavailable);
  }
  expect_same_routing(session.result(), want);
  testutil::expect_router_invariants(grid, nl, opts.congestion,
                                     session.result());
}

TEST(DistSubprocessTest, MissingWorkerBinaryIsUnavailableAndRecoverable) {
  const ChipConfig c = dist_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  const RouterOptions opts = dist_router_options();

  Router direct(grid, nl, opts);
  ASSERT_TRUE(direct.run(2).ok());
  const RouterResult want = direct.result();

  dist::SubprocessTransportOptions sopts;
  sopts.worker_path = "/nonexistent/cdst_shard_worker";
  sopts.workers = 2;
  dist::SubprocessTransport transport(sopts);
  RouterOptions topts = opts;
  topts.transport = &transport;
  Router session(grid, nl, topts);
  const Status st = session.run(2);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.to_string();
  EXPECT_EQ(session.rounds_completed(), 0);

  // Dropping the broken transport makes the same session finish in-process
  // and land on the uninterrupted result: the failed round committed
  // nothing.
  RouterOptions fallback = opts;
  fallback.transport = nullptr;
  ASSERT_TRUE(session.set_options(fallback).ok());
  ASSERT_TRUE(session.run(2).ok());
  expect_same_routing(session.result(), want);
}

#endif  // CDST_SHARD_WORKER_PATH

}  // namespace
}  // namespace cdst
