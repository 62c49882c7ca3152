// Self-test of the benchmark's own machinery at a tiny size: the percentile
// rule, failure counting, and that every output check fires on a
// deliberately corrupted result.
//
//   python3 perfbench/run.py --self-test

#include <cmath>
#include <cstdio>
#include <string>
#include <unordered_set>

#include "checks.h"
#include "corpus.h"
#include "report.h"

namespace {

using namespace cdst;
using namespace perfbench;

int failures = 0;

void expect(bool ok, const char* what) {
  std::fprintf(stderr, "  %s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

void percentile_rule() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  expect(tail_percentile(v, 0.9) == 90.0,
         "p90 of 100 samples is reported (10 beyond it)");
  expect(!tail_percentile(v, 0.95).has_value(),
         "p95 of 100 samples is withheld (5 beyond it)");
  expect(!tail_percentile(v, 0.99).has_value(),
         "p99 of 100 samples is withheld");
  for (int i = 101; i <= 1000; ++i) v.push_back(i);
  expect(tail_percentile(v, 0.99) == 990.0,
         "p99 of 1000 samples is reported (10 beyond it)");
  expect(median({4, 1, 3, 2}) == 2.5, "median of an even count");
}

void failure_counting() {
  Outcome o;
  o.op("rounds", Status::Ok(), 3);
  o.op("rounds", Status::Unavailable("injected"), 2);
  o.check("tree", true);
  o.check("tree", false, "injected");
  expect(o.attempted() == 7 && o.failed() == 3,
         "non-OK statuses and failed checks count as failed operations");
  expect(!o.correct(), "a failed operation makes the run incorrect");
  expect(o.json().find("\"failed\": 3") != std::string::npos,
         "the result line carries the failure count");
  Outcome clean;
  clean.op("solves", Status::Ok());
  expect(clean.correct() && clean.failed() == 0, "a clean run is correct");
}

void route_checks() {
  ChipConfig config;
  config.name = "selftest";
  config.num_nets = 24;
  config.num_layers = 3;
  config.nx = config.ny = 10;
  config.capacity = 8.0;
  const RoutingGrid grid = make_chip_grid(config);
  const Netlist netlist = generate_netlist(config, grid);
  Router router(grid, netlist, RouterOptions{});
  expect(router.run(1).ok(), "tiny chip routes");
  const RouterResult good = router.result();
  expect(check_all_routes(grid, netlist, good).empty(),
         "tree check accepts the router's routes");
  expect(compare_routing(good, good).empty(), "routing compare accepts a copy");

  std::size_t big = 0;  // a net whose route has at least two edges
  while (big < netlist.nets.size() && good.routes[big].size() < 2) ++big;
  expect(big < netlist.nets.size(), "a multi-edge route exists");
  if (big == netlist.nets.size()) return;
  const Net& net = netlist.nets[big];

  std::vector<EdgeId> dup = good.routes[big];
  dup.push_back(dup.front());
  expect(!check_route_tree(grid, net, dup).empty(),
         "tree check fires on a repeated edge");
  std::vector<EdgeId> cut = good.routes[big];
  cut.erase(cut.begin() + static_cast<long>(cut.size() / 2));
  expect(!check_route_tree(grid, net, cut).empty(),
         "tree check fires on a removed edge");
  expect(!check_route_tree(grid, net, {}).empty(),
         "tree check fires on an empty route");
  // An edge with neither end on the route leaves two components.
  const Graph& g = grid.graph();
  std::unordered_set<VertexId> on_route;
  for (const EdgeId e : good.routes[big]) {
    on_route.insert(g.tail(e));
    on_route.insert(g.head(e));
  }
  EdgeId detached = 0;
  while (on_route.contains(g.tail(detached)) ||
         on_route.contains(g.head(detached))) {
    ++detached;
  }
  std::vector<EdgeId> far = good.routes[big];
  far.push_back(detached);
  expect(!check_route_tree(grid, net, far).empty(),
         "tree check fires on a detached edge");

  RouterResult bad = good;
  bad.sink_delays[0] += 1e-9;
  expect(!compare_routing(bad, good).empty(),
         "routing compare fires on a perturbed sink delay");
  bad = good;
  bad.routes[big].pop_back();
  expect(!compare_routing(bad, good).empty(),
         "routing compare fires on a changed route");
  expect(!check_all_routes(grid, netlist, bad).empty(),
         "route check fires on a corrupted result");
}

void solve_checks() {
  ThreadPool pool(2);
  Outcome o;
  Corpus corpus = build_corpus({1}, 1, pool, o, nullptr);
  expect(o.correct() && !corpus.jobs.empty(), "tiny corpus builds");
  if (corpus.jobs.empty()) return;
  std::size_t j = 0;  // an instance with at least three sinks
  while (j + 1 < corpus.jobs.size() && corpus.sinks[j] < 3) ++j;
  CdSolver solver(corpus.solver_options, &pool);
  const StatusOr<SolveResult> a = solver.solve(corpus.jobs[j]);
  const StatusOr<std::vector<SolveResult>> batch =
      solver.solve_batch(std::span(corpus.jobs.data() + j, 1));
  expect(a.ok() && batch.ok(), "solve and solve_batch succeed");
  if (!a.ok() || !batch.ok()) return;
  const SolveResult& good = a.value();
  const CostDistanceInstance& inst = *corpus.jobs[j].instance;
  expect(compare_solve(batch.value()[0], good).empty(),
         "solve compare accepts the batch result");
  expect(check_objective(good, inst).empty(),
         "objective check accepts the solver's objective");

  SolveResult bad = good;
  bad.eval.objective = std::nextafter(bad.eval.objective, 1e300);
  expect(!compare_solve(bad, good).empty(),
         "solve compare fires on a one-ulp objective change");
  expect(!check_objective(bad, inst).empty(),
         "objective check fires on a one-ulp objective change");
  bad = good;
  bad.tree.nodes.back().parent = 0;
  expect(!compare_solve(bad, good).empty(),
         "solve compare fires on a changed tree");
  bad = good;
  bad.stats.labels_settled += 1;
  expect(!compare_solve(bad, good).empty(),
         "solve compare fires on a changed work counter");
}

}  // namespace

int main() {
  std::fprintf(stderr, "percentile rule\n");
  percentile_rule();
  std::fprintf(stderr, "failure counting\n");
  failure_counting();
  std::fprintf(stderr, "route checks\n");
  route_checks();
  std::fprintf(stderr, "solve checks\n");
  solve_checks();
  std::printf("selftest: %s (%d failed)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
