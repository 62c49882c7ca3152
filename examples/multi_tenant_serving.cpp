// Multi-tenant serving: N router tenants share one Engine through the
// serving core (serve/serve.h) — admission against a dense-state budget,
// fair scheduling in which a tenant's weight is its share of oracle work
// (each tenant's charged work units are printed), a tenant deadline that
// expires cleanly and resumes, and the fleet snapshot an operator would
// watch.
//
// The core guarantee on display: scheduling only reorders work. Every
// tenant's served result is bit-identical to a serial Router session run
// on its own, which the example verifies at the end.
//
//   ./examples/multi_tenant_serving [--tenants N] [--rounds R] [--threads T]

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "api/engine.h"
#include "route/netlist_gen.h"
#include "serve/serve.h"
#include "util/args.h"

using namespace cdst;

namespace {

struct Tenant {
  ChipConfig config;
  RoutingGrid grid;
  Netlist netlist;
};

RouterOptions tenant_router_options() {
  RouterOptions opts;
  opts.method = SteinerMethod::kCD;
  opts.shards = 2;
  opts.seed = 7;
  return opts;
}

void print_fleet(const serve::ServeStats& stats) {
  std::printf("fleet: %zu open, %zu runnable, %zu slices, %zu deadline "
              "expirations\n",
              stats.sessions_open, stats.queue_depth, stats.slices_total,
              stats.deadline_expirations);
  std::printf("  admission: %zu/%zu projected bytes; engine peak %lld of "
              "%lld capacity\n",
              stats.projected_bytes, stats.admission_budget_bytes,
              static_cast<long long>(stats.budget_peak_bytes),
              static_cast<long long>(stats.budget_capacity_bytes));
  for (const serve::TenantSnapshot& t : stats.tenants) {
    std::printf("  tenant %llu %-10s weight=%d rounds=%d/%d work=%llu "
                "ace4=%.3f util=%.3f%s\n",
                static_cast<unsigned long long>(t.id), t.name.c_str(),
                t.weight, t.rounds_completed, t.rounds_submitted,
                static_cast<unsigned long long>(t.work_units), t.ace4,
                t.max_utilization, t.runnable ? "" : " (idle)");
  }
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("multi_tenant_serving",
                 "N router tenants time-sliced fairly over one engine");
  args.add_option("tenants", "3", "router tenants to admit");
  args.add_option("rounds", "2", "Lagrangean rounds per tenant");
  args.add_option("threads", "4", "engine worker threads (results invariant)");
  args.parse(argc, argv);
  const int tenants = args.get_int("tenants") < 1 ? 1 : args.get_int("tenants");
  const int rounds = args.get_int("rounds") < 1 ? 1 : args.get_int("rounds");
  const int threads = args.get_int("threads") < 1 ? 1 : args.get_int("threads");

  // 1. One engine = one pool + one dense-state budget; the server adds the
  //    registry, admission and the fair scheduler on top.
  Engine engine({.threads = threads,
                 .dense_state_budget_bytes = 256u << 20});
  serve::ServeOptions serve_options;
  serve_options.max_sessions = static_cast<std::size_t>(tenants);
  serve::EngineServer server(engine, serve_options);

  // 2. Admit the tenants: distinct chips, tenant 0 carries double weight
  //    (twice the oracle work of the others while all are backlogged).
  //    Each declares a projected dense-state footprint that admission
  //    charges against the budget.
  std::vector<Tenant> chips;
  std::vector<serve::SessionId> ids;
  chips.reserve(static_cast<std::size_t>(tenants));
  for (int t = 0; t < tenants; ++t) {
    ChipConfig c;
    c.name = "tenant-" + std::to_string(t);
    c.num_nets = 60;
    c.num_layers = 3;
    c.nx = c.ny = 16;
    c.capacity = 9.0;
    c.seed = 11 + static_cast<std::uint64_t>(t);
    chips.push_back({c, make_chip_grid(c), {}});
    chips.back().netlist = generate_netlist(c, chips.back().grid);
  }
  for (int t = 0; t < tenants; ++t) {
    serve::TenantOptions tenant;
    tenant.name = chips[static_cast<std::size_t>(t)].config.name;
    tenant.weight = t == 0 ? 2 : 1;
    tenant.projected_dense_bytes = 8u << 20;
    StatusOr<serve::SessionId> id = server.open_router_session(
        chips[static_cast<std::size_t>(t)].grid,
        chips[static_cast<std::size_t>(t)].netlist, tenant_router_options(),
        tenant);
    if (!id.ok()) {
      std::fprintf(stderr, "admission refused tenant %d: %s\n", t,
                   id.status().to_string().c_str());
      return 1;
    }
    ids.push_back(id.value());
    if (Status st = server.submit_rounds(id.value(), rounds); !st.ok()) {
      std::fprintf(stderr, "submit failed: %s\n", st.to_string().c_str());
      return 1;
    }
  }

  // One admission past the configured depth is refused with a typed
  // status — the registry and every admitted tenant are untouched.
  {
    const Tenant& c = chips.front();
    StatusOr<serve::SessionId> refused =
        server.open_router_session(c.grid, c.netlist, tenant_router_options());
    std::printf("over-admission refused as expected: %s\n",
                refused.status().to_string().c_str());
  }

  // 3. Give the last tenant an already-expired deadline: its first slice
  //    pauses with kDeadlineExceeded before committing anything (its sink
  //    would see a cancelled round summary), every other tenant drains to
  //    completion around it.
  const serve::SessionId late = ids.back();
  if (tenants > 1) {
    (void)server.set_deadline(late, std::chrono::steady_clock::now());
  }
  if (Status st = server.run_until_idle(); !st.ok()) {
    std::fprintf(stderr, "pump failed: %s\n", st.to_string().c_str());
    return 1;
  }
  print_fleet(server.stats());

  // 4. Revive the expired tenant: clear its deadline, resume, pump again.
  //    It finishes exactly the rounds it was submitted, none lost.
  if (tenants > 1) {
    std::printf("reviving tenant %llu after its deadline expired...\n",
                static_cast<unsigned long long>(late));
    (void)server.set_deadline(late, std::nullopt);
    (void)server.resume(late);
    if (Status st = server.run_until_idle(); !st.ok()) {
      std::fprintf(stderr, "resume pump failed: %s\n", st.to_string().c_str());
      return 1;
    }
  }
  print_fleet(server.stats());

  // 5. The whole point: served results are bit-identical to serial
  //    sessions, per tenant, despite the interleaving and the mid-flight
  //    deadline.
  for (int t = 0; t < tenants; ++t) {
    const Tenant& c = chips[static_cast<std::size_t>(t)];
    Router serial(c.grid, c.netlist, tenant_router_options());
    if (!serial.run(rounds).ok()) return 1;
    const RouterResult want = std::move(serial).take_result();
    const StatusOr<RouterResult> got = server.result(ids[static_cast<std::size_t>(t)]);
    if (!got.ok() || got.value().routes != want.routes ||
        got.value().sink_delays != want.sink_delays) {
      std::fprintf(stderr, "tenant %d diverged from its serial session\n", t);
      return 1;
    }
  }
  std::printf("verified: %d served tenants bit-identical to serial sessions "
              "(%d threads)\n",
              tenants, engine.thread_pool().concurrency());
  return 0;
}
