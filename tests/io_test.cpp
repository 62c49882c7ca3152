// Tests for instance serialization, the table printer and the SVG emitter.

#include <gtest/gtest.h>

#include <sstream>

#include "api/cd_solver.h"
#include "core/cost_distance.h"
#include "grid/routing_grid.h"
#include "io/instance_io.h"
#include "io/svg.h"
#include "io/table.h"
#include "topology/rsmt.h"
#include "util/rng.h"

namespace cdst {
namespace {

TEST(InstanceIo, RoundTripPreservesSolution) {
  // Build a random instance, serialize, parse back, and compare solver
  // results on both.
  RoutingGrid grid(6, 6, make_default_layer_stack(3), ViaSpec{});
  Rng rng(31);
  std::vector<double> cost(grid.graph().num_edges());
  for (double& c : cost) c = rng.uniform_double(0.5, 5.0);
  std::vector<double> delay = grid.edge_delays();

  CostDistanceInstance inst;
  inst.graph = &grid.graph();
  inst.cost = &cost;
  inst.delay = &delay;
  inst.root = grid.vertex_at(0, 0, 0);
  inst.sinks = {Terminal{grid.vertex_at(5, 5, 0), 1.5},
                Terminal{grid.vertex_at(0, 5, 0), 0.25},
                Terminal{grid.vertex_at(5, 0, 0), 3.0}};
  inst.dbif = 2.5;
  inst.eta = 0.3;

  std::stringstream ss;
  write_instance(ss, inst);
  const OwnedInstance loaded = read_instance(ss);

  EXPECT_EQ(loaded.instance.root, inst.root);
  EXPECT_EQ(loaded.instance.sinks.size(), inst.sinks.size());
  EXPECT_DOUBLE_EQ(loaded.instance.dbif, inst.dbif);
  EXPECT_DOUBLE_EQ(loaded.instance.eta, inst.eta);
  EXPECT_EQ(loaded.graph->num_edges(), grid.graph().num_edges());

  SolverOptions opts;  // no future cost: generic-graph path, deterministic
  opts.seed = 4;
  CdSolver solver(opts);
  const StatusOr<SolveResult> a = solver.solve(inst);
  const StatusOr<SolveResult> b = solver.solve(loaded.instance);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a->eval.objective, b->eval.objective);
}

TEST(InstanceIo, RejectsGarbage) {
  std::stringstream ss("this is not an instance");
  EXPECT_THROW(read_instance(ss), ContractViolation);
}

TEST(Table, AlignsAndFormats) {
  TextTable t({"Chip", "Run", "WS", "Vias"});
  t.add_row({"c1", "CD", "-49", fmt_count(547240)});
  t.add_row({"c2", "L1", "-82", fmt_count(864387)});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("Chip"), std::string::npos);
  EXPECT_NE(s.find("547 240"), std::string::npos);
  EXPECT_NE(s.find("864 387"), std::string::npos);
  // Rows align: every line has the same length.
  std::istringstream is(s);
  std::string line;
  std::size_t len = 0;
  while (std::getline(is, line)) {
    if (len == 0) len = line.size();
    EXPECT_NEAR(static_cast<double>(line.size()), static_cast<double>(len),
                2.0);
  }
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_count(941271), "941 271");
  EXPECT_EQ(fmt_count(-1633), "-1 633");
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
}

TEST(Table, RowWidthMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(Svg, EmitsTopologyAndTree) {
  Rect extent;
  extent.expand(Point2{0, 0});
  extent.expand(Point2{10, 10});
  SvgCanvas canvas(extent);

  std::vector<PlaneTerminal> sinks{{Point2{10, 0}, 1.0, 0.0},
                                   {Point2{0, 10}, 1.0, 0.0}};
  const PlaneTopology topo = rsmt_topology(Point2{0, 0}, sinks);
  draw_topology(canvas, topo, "blue");
  const std::string s = canvas.to_string();
  EXPECT_NE(s.find("<svg"), std::string::npos);
  EXPECT_NE(s.find("<line"), std::string::npos);
  EXPECT_NE(s.find("</svg>"), std::string::npos);
}

}  // namespace
}  // namespace cdst
