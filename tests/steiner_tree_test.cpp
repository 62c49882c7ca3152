// Tests for the embedded Steiner tree structure and its assembler:
// segment splitting, normalization to bifurcation-compatible form, and
// structural validation.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/steiner_tree.h"
#include "graph/graph.h"

namespace cdst {
namespace {

/// Path graph 0-1-2-...-(n-1); edge i connects i and i+1.
Graph path_graph(std::size_t n) {
  GraphBuilder b(n);
  for (VertexId v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return Graph(b);
}

TEST(TreeAssembler, SimpleRootToSinkPath) {
  const Graph g = path_graph(5);
  TreeAssembler a(g);
  const auto root = a.add_root(0);
  const auto sink = a.add_sink(4, 0);
  a.add_segment(sink, root, {3, 2, 1, 0});
  const SteinerTree t = a.finalize();
  t.validate(g, 1);
  EXPECT_EQ(t.nodes.size(), 2u);
  EXPECT_EQ(t.nodes[1].kind, NodeKind::kSink);
  EXPECT_EQ(t.nodes[1].up_path.size(), 4u);
}

TEST(TreeAssembler, NodeAtSplitsSegmentInterior) {
  const Graph g = path_graph(6);
  TreeAssembler a(g);
  const auto root = a.add_root(0);
  const auto sink = a.add_sink(5, 0);
  a.add_segment(sink, root, {4, 3, 2, 1, 0});
  EXPECT_TRUE(a.covers(3));
  EXPECT_FALSE(a.covers(42));
  const auto mid = a.node_at(3);
  ASSERT_NE(mid, TreeAssembler::kNoNode);
  EXPECT_EQ(a.vertex_of(mid), 3u);
  // Splitting twice at the same vertex returns the same node.
  EXPECT_EQ(a.node_at(3), mid);
  const SteinerTree t = a.finalize();
  t.validate(g, 1);
  EXPECT_EQ(t.nodes.size(), 3u);
}

TEST(TreeAssembler, AttachCreatesBifurcation) {
  // Star around vertex 2: 0-1-2-3-4 plus edge 2-5.
  GraphBuilder b(6);
  b.add_edge(0, 1);  // e0
  b.add_edge(1, 2);  // e1
  b.add_edge(2, 3);  // e2
  b.add_edge(3, 4);  // e3
  b.add_edge(2, 5);  // e4
  const Graph g(b);

  TreeAssembler a(g);
  const auto root = a.add_root(0);
  const auto s0 = a.add_sink(4, 0);
  const auto s1 = a.add_sink(5, 1);
  a.add_segment(s0, root, {3, 2, 1, 0});
  const auto attach = a.node_at(2);  // split at vertex 2
  a.add_segment(s1, attach, {4});
  const SteinerTree t = a.finalize();
  t.validate(g, 2);
  // Nodes: root, two sinks, split Steiner point.
  EXPECT_EQ(t.nodes.size(), 4u);
  // The Steiner node at vertex 2 must have two children.
  bool found_bifurcation = false;
  for (std::size_t i = 0; i < t.nodes.size(); ++i) {
    if (t.nodes[i].kind == NodeKind::kSteiner) {
      EXPECT_EQ(t.children[i].size(), 2u);
      found_bifurcation = true;
    }
  }
  EXPECT_TRUE(found_bifurcation);
}

TEST(TreeAssembler, TerminalWithBranchesGetsStackedTwin) {
  // Sink at vertex 2 with tree continuing through it:
  // root 0, sink A at 2, sink B at 4. Path root->B passes through 2.
  const Graph g = path_graph(5);
  TreeAssembler a(g);
  const auto root = a.add_root(0);
  const auto sa = a.add_sink(2, 0);
  const auto sb = a.add_sink(4, 1);
  a.add_segment(sa, root, {1, 0});
  a.add_segment(sb, sa, {3, 2});
  const SteinerTree t = a.finalize();
  t.validate(g, 2);  // validate enforces sinks-are-leaves
  // The sink at 2 must have been given a Steiner twin carrying the branches:
  // root + 2 sinks + twin.
  EXPECT_EQ(t.nodes.size(), 4u);
}

TEST(TreeAssembler, ZeroLengthSegmentBetweenCoincidentTerminals) {
  const Graph g = path_graph(3);
  TreeAssembler a(g);
  const auto root = a.add_root(0);
  const auto s0 = a.add_sink(2, 0);
  const auto s1 = a.add_sink(2, 1);  // same vertex as s0
  a.add_segment(s0, root, {1, 0});
  a.add_segment(s1, s0, {});
  const SteinerTree t = a.finalize();
  t.validate(g, 2);
}

TEST(TreeAssembler, ResetForgetsThePreviousTree) {
  // A recycled assembler must answer like a fresh one: no vertex of the
  // previous tree (terminals, split points, segment interiors) is still
  // covered, and the next tree comes out identical to a fresh assembly.
  GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(3, 4);
  b.add_edge(2, 5);
  const Graph g(b);
  const Graph p = path_graph(7);
  const auto build_star = [&g](TreeAssembler& a) {
    const auto root = a.add_root(0);
    const auto s0 = a.add_sink(4, 0);
    const auto s1 = a.add_sink(5, 1);
    a.add_segment(s0, root, {3, 2, 1, 0});
    a.add_segment(s1, a.node_at(2), {4});
    return a.finalize();
  };
  const auto build_path = [](TreeAssembler& a) {
    const auto root = a.add_root(6);
    const auto s0 = a.add_sink(3, 0);
    a.add_segment(s0, root, {3, 4, 5});
    return a.finalize();
  };

  TreeAssembler recycled(g);
  build_star(recycled);
  for (int round = 0; round < 3; ++round) {
    recycled.reset(p);
    for (VertexId v = 0; v < 7; ++v) EXPECT_FALSE(recycled.covers(v)) << v;
    TreeAssembler fresh_path(p);
    const SteinerTree want_path = build_path(fresh_path);
    const SteinerTree got_path = build_path(recycled);
    got_path.validate(p, 1);
    EXPECT_EQ(got_path.all_edges(), want_path.all_edges());
    EXPECT_EQ(got_path.children, want_path.children);

    recycled.reset(g);
    for (VertexId v = 0; v < 6; ++v) EXPECT_FALSE(recycled.covers(v)) << v;
    TreeAssembler fresh_star(g);
    const SteinerTree want_star = build_star(fresh_star);
    const SteinerTree got_star = build_star(recycled);
    got_star.validate(g, 2);
    EXPECT_EQ(got_star.all_edges(), want_star.all_edges());
    EXPECT_EQ(got_star.children, want_star.children);
    EXPECT_EQ(got_star.nodes.size(), want_star.nodes.size());
  }
}

TEST(TreeAssembler, DisconnectedStructureThrows) {
  const Graph g = path_graph(4);
  TreeAssembler a(g);
  a.add_root(0);
  a.add_sink(3, 0);  // never connected
  EXPECT_THROW(a.finalize(), ContractViolation);
}

TEST(TreeAssembler, NonContiguousPathRejected) {
  const Graph g = path_graph(5);
  TreeAssembler a(g);
  const auto root = a.add_root(0);
  const auto sink = a.add_sink(4, 0);
  EXPECT_THROW(a.add_segment(sink, root, {0, 1, 2, 3}),
               ContractViolation);  // edges in wrong order
}

TEST(SteinerTree, ValidateCatchesDuplicatedEdge) {
  const Graph g = path_graph(3);
  SteinerTree t;
  t.nodes.resize(3);
  t.nodes[0].graph_vertex = 0;
  t.nodes[0].kind = NodeKind::kRoot;
  t.nodes[0].parent = -1;
  t.nodes[1].graph_vertex = 2;
  t.nodes[1].kind = NodeKind::kSteiner;
  t.nodes[1].parent = 0;
  t.nodes[1].up_path = {1, 0};
  t.nodes[2].graph_vertex = 0;
  t.nodes[2].kind = NodeKind::kSink;
  t.nodes[2].sink_index = 0;
  t.nodes[2].parent = 1;
  t.nodes[2].up_path = {0, 1};  // walks 0 -> 1 -> 2, reusing both edges
  t.children = {{1}, {2}, {}};
  EXPECT_THROW(t.validate(g, 1), ContractViolation);
  t.validate(g, 1, /*allow_shared_edges=*/true);  // multiset mode accepts
}

/// Graph of AttachCreatesBifurcation: path 0-1-2-3-4 (e0..e3) plus e4 = 2-5.
Graph star_graph() {
  GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(3, 4);
  b.add_edge(2, 5);
  return Graph(b);
}

SteinerTree::Node tree_node(VertexId v, NodeKind kind, std::int32_t parent,
                            std::int32_t sink_index,
                            std::vector<EdgeId> up_path) {
  SteinerTree::Node n;
  n.graph_vertex = v;
  n.kind = kind;
  n.parent = parent;
  n.sink_index = sink_index;
  n.up_path = std::move(up_path);
  return n;
}

/// A valid tree on star_graph(): root 0, Steiner point at 2, sink 0 at 4,
/// sink 1 at 5.
SteinerTree good_tree() {
  SteinerTree t;
  t.nodes = {tree_node(0, NodeKind::kRoot, -1, -1, {}),
             tree_node(2, NodeKind::kSteiner, 0, -1, {1, 0}),
             tree_node(4, NodeKind::kSink, 1, 0, {3, 2}),
             tree_node(5, NodeKind::kSink, 1, 1, {4})};
  t.children = {{1}, {2, 3}, {}, {}};
  return t;
}

/// Asserts that validating `t` throws a ContractViolation whose text holds
/// `fragment` (a check's message, or its expression for unlabelled checks),
/// through `validator` when given, else through SteinerTree::validate.
void expect_rejected(const SteinerTree& t, const Graph& g,
                     std::size_t num_sinks, const std::string& fragment,
                     TreeValidator* validator = nullptr) {
  try {
    if (validator != nullptr) {
      validator->validate(t, g, num_sinks);
    } else {
      t.validate(g, num_sinks);
    }
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << e.what();
    return;
  }
  ADD_FAILURE() << "tree accepted; expected a violation of: " << fragment;
}

TEST(SteinerTree, ValidateAcceptsGoodTree) {
  good_tree().validate(star_graph(), 2);
}

TEST(SteinerTree, ValidateRejectsEdgeIdOutOfRange) {
  SteinerTree t = good_tree();
  t.nodes[3].up_path = {99};
  expect_rejected(t, star_graph(), 2, "e < g.num_edges()");
}

TEST(SteinerTree, ValidateRejectsNonContiguousPath) {
  SteinerTree t = good_tree();
  t.nodes[2].up_path = {2, 3};  // e2 = 2-3 does not touch vertex 4
  expect_rejected(t, star_graph(), 2, "embedded path is not contiguous");
}

TEST(SteinerTree, ValidateRejectsPathMissingItsParent) {
  SteinerTree t = good_tree();
  t.nodes[2].up_path = {3};  // stops at vertex 3, the parent sits at 2
  expect_rejected(t, star_graph(), 2,
                  "embedded path does not reach the parent vertex");
}

TEST(SteinerTree, ValidateRejectsMissingSink) {
  SteinerTree t = good_tree();
  t.nodes[3].kind = NodeKind::kSteiner;
  t.nodes[3].sink_index = -1;
  expect_rejected(t, star_graph(), 2, "sink missing or duplicated in tree");
}

TEST(SteinerTree, ValidateRejectsDuplicatedSink) {
  SteinerTree t = good_tree();
  t.nodes[3].sink_index = 0;
  expect_rejected(t, star_graph(), 2, "sink missing or duplicated in tree");
}

TEST(SteinerTree, ValidateRejectsSinkIndexOutOfRange) {
  SteinerTree t = good_tree();
  t.nodes[3].sink_index = 2;
  expect_rejected(t, star_graph(), 2,
                  "static_cast<std::size_t>(n.sink_index) < num_sinks");
}

TEST(SteinerTree, ValidateRejectsSinkThatIsNotALeaf) {
  // Sink 0 at vertex 2 carries sink 1 (vertex 4) below it.
  SteinerTree t;
  t.nodes = {tree_node(0, NodeKind::kRoot, -1, -1, {}),
             tree_node(2, NodeKind::kSink, 0, 0, {1, 0}),
             tree_node(4, NodeKind::kSink, 1, 1, {3, 2})};
  t.children = {{1}, {2}, {}};
  expect_rejected(t, star_graph(), 2, "sinks must be leaves");
}

TEST(SteinerTree, ValidateRejectsChildrenOutDegreeMismatch) {
  SteinerTree t = good_tree();
  t.children[1] = {2};  // node 3 still names node 1 as its parent
  expect_rejected(t, star_graph(), 2, "children[i].size() == out_degree[i]");
}

TEST(SteinerTree, ValidateRejectsRootWithPath) {
  SteinerTree t = good_tree();
  t.nodes[0].up_path = {0};
  expect_rejected(t, star_graph(), 2, "n.up_path.empty()");
}

TEST(SteinerTree, ValidateRejectsRootThatIsNotALeaf) {
  // Both sinks hang off a root at vertex 2.
  SteinerTree t;
  t.nodes = {tree_node(2, NodeKind::kRoot, -1, -1, {}),
             tree_node(4, NodeKind::kSink, 0, 0, {3, 2}),
             tree_node(5, NodeKind::kSink, 0, 1, {4})};
  t.children = {{1, 2}, {}, {}};
  expect_rejected(t, star_graph(), 2, "root must be a leaf");
}

TEST(SteinerTree, ValidateRejectsInternalDegreeAboveThree) {
  SteinerTree t = good_tree();
  // A third child of the Steiner point at vertex 2: a stacked Steiner leaf.
  t.nodes.push_back(tree_node(2, NodeKind::kSteiner, 1, -1, {}));
  t.children[1] = {2, 3, 4};
  t.children.emplace_back();
  expect_rejected(t, star_graph(), 2,
                  "internal vertices must have degree at most 3");
}

TEST(SteinerTree, ValidateRejectsParentOutOfRange) {
  SteinerTree t = good_tree();
  t.nodes[3].parent = 7;
  expect_rejected(t, star_graph(), 2,
                  "static_cast<std::size_t>(n.parent) < nodes.size()");
}

TEST(SteinerTree, ValidateRejectsMalformedRoot) {
  SteinerTree t = good_tree();
  t.nodes[0].kind = NodeKind::kSteiner;
  expect_rejected(t, star_graph(), 2, "nodes[0].kind == NodeKind::kRoot");
  t = good_tree();
  t.children.pop_back();
  expect_rejected(t, star_graph(), 2, "children.size() == nodes.size()");
}

TEST(SteinerTree, ValidateBadTreeAfterGoodTree) {
  // Good and bad trees alternate through one recycled validator: every
  // verdict is the tree's own, so nothing an earlier call recorded (used
  // edges, sink counts, degrees — including bits a throw left set) may
  // carry over into the next one.
  const Graph g = star_graph();
  TreeValidator validator;
  SteinerTree dup = good_tree();
  dup.nodes[3].up_path = {4, 1};  // walks 5 -> 2 -> 1: e1 reused, misses 2
  SteinerTree gap = good_tree();
  gap.nodes[2].up_path = {2, 3};
  SteinerTree missing = good_tree();
  missing.nodes[3].sink_index = 0;
  for (int round = 0; round < 3; ++round) {
    validator.validate(good_tree(), g, 2);
    expect_rejected(dup, g, 2, "graph edge used by two tree segments",
                    &validator);
    validator.validate(good_tree(), g, 2);
    expect_rejected(gap, g, 2, "embedded path is not contiguous", &validator);
    validator.validate(good_tree(), g, 2);
    expect_rejected(missing, g, 2, "sink missing or duplicated in tree",
                    &validator);
    // A smaller graph in between: the bitset must not read stale bits.
    const Graph p = path_graph(5);
    SteinerTree line;
    line.nodes = {tree_node(0, NodeKind::kRoot, -1, -1, {}),
                  tree_node(4, NodeKind::kSink, 0, 0, {3, 2, 1, 0})};
    line.children = {{1}, {}};
    validator.validate(line, p, 1);
  }
  // Shared-edge mode through the same validator, then strict mode again:
  // sink 0 at vertex 0 walks back up over both edges of a Steiner leg.
  const Graph p3 = path_graph(3);
  SteinerTree shared;
  shared.nodes = {tree_node(0, NodeKind::kRoot, -1, -1, {}),
                  tree_node(2, NodeKind::kSteiner, 0, -1, {1, 0}),
                  tree_node(0, NodeKind::kSink, 1, 0, {0, 1})};
  shared.children = {{1}, {2}, {}};
  validator.validate(shared, p3, 1, /*allow_shared_edges=*/true);
  expect_rejected(shared, p3, 1, "graph edge used by two tree segments",
                  &validator);
  validator.validate(good_tree(), g, 2);
}

}  // namespace
}  // namespace cdst
