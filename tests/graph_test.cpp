// Tests for the CSR graph, Dijkstra variants and ALT landmarks.

#include <gtest/gtest.h>

#include "graph/dijkstra.h"
#include "graph/graph.h"
#include "graph/landmarks.h"
#include "util/rng.h"

namespace cdst {
namespace {

Graph path_graph(std::size_t n) {
  GraphBuilder b(n);
  for (VertexId v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return Graph(b);
}

TEST(Graph, CsrAdjacency) {
  GraphBuilder b(4);
  const EdgeId e0 = b.add_edge(0, 1);
  const EdgeId e1 = b.add_edge(1, 2);
  b.add_edge(0, 2);
  b.add_edge(0, 2);  // parallel edge
  Graph g(b);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(2), 3u);
  EXPECT_EQ(g.degree(3), 0u);
  EXPECT_EQ(g.other_end(e0, 0), 1u);
  EXPECT_EQ(g.other_end(e0, 1), 0u);
  EXPECT_EQ(g.tail(e1), 1u);
  EXPECT_EQ(g.head(e1), 2u);
}

TEST(Graph, SelfLoopRejected) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(1, 1), ContractViolation);
}

TEST(Dijkstra, PathGraphDistances) {
  const Graph g = path_graph(5);
  const auto r = dijkstra(g, {0}, [](EdgeId) { return 2.0; });
  for (VertexId v = 0; v < 5; ++v) {
    EXPECT_DOUBLE_EQ(r.dist[v], 2.0 * v);
  }
  const auto path = r.path_edges(4);
  EXPECT_EQ(path.size(), 4u);
}

TEST(Dijkstra, MultiSource) {
  const Graph g = path_graph(7);
  const auto r = dijkstra(g, {0, 6}, [](EdgeId) { return 1.0; });
  EXPECT_DOUBLE_EQ(r.dist[3], 3.0);
  EXPECT_DOUBLE_EQ(r.dist[5], 1.0);
}

TEST(Dijkstra, UnreachableIsInfinity) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  Graph g(b);
  const auto r = dijkstra(g, {0}, [](EdgeId) { return 1.0; });
  EXPECT_FALSE(r.reached(2));
  EXPECT_TRUE(r.reached(1));
}

TEST(Dijkstra, PotentialsSeedInitialLabels) {
  const Graph g = path_graph(4);
  std::vector<double> init{5.0, DijkstraResult::kInf, DijkstraResult::kInf,
                           0.0};
  const auto r =
      dijkstra_from_potentials(g, init, [](EdgeId) { return 1.0; });
  EXPECT_DOUBLE_EQ(r.dist[0], 3.0);  // reached from vertex 3, not its own 5.0
  EXPECT_DOUBLE_EQ(r.dist[3], 0.0);
  EXPECT_DOUBLE_EQ(r.dist[1], 2.0);
}

class RandomGraphTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  struct Rand {
    Graph g;
    std::vector<double> len;
  };
  Rand make(std::size_t n, std::size_t m) {
    Rng rng(GetParam());
    GraphBuilder b(n);
    std::vector<double> len;
    // Spanning path for connectivity, then random extra edges.
    for (VertexId v = 0; v + 1 < n; ++v) {
      b.add_edge(v, v + 1);
      len.push_back(rng.uniform_double(0.1, 10.0));
    }
    for (std::size_t e = n; e < m; ++e) {
      const auto u = static_cast<VertexId>(rng.uniform(n));
      auto v = static_cast<VertexId>(rng.uniform(n));
      if (u == v) v = (v + 1) % static_cast<VertexId>(n);
      b.add_edge(u, v);
      len.push_back(rng.uniform_double(0.1, 10.0));
    }
    return Rand{Graph(b), std::move(len)};
  }
};

TEST_P(RandomGraphTest, DijkstraMatchesBellmanFord) {
  const auto [g, len] = make(40, 120);
  const auto r = dijkstra(g, {0}, [&](EdgeId e) { return len[e]; });
  // Bellman-Ford reference.
  std::vector<double> dist(g.num_vertices(), DijkstraResult::kInf);
  dist[0] = 0.0;
  for (std::size_t round = 0; round < g.num_vertices(); ++round) {
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const VertexId a = g.tail(e), b = g.head(e);
      if (dist[a] + len[e] < dist[b]) dist[b] = dist[a] + len[e];
      if (dist[b] + len[e] < dist[a]) dist[a] = dist[b] + len[e];
    }
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(r.dist[v], dist[v], 1e-9);
  }
}

TEST_P(RandomGraphTest, PathEdgesReconstructDistance) {
  const auto [g, len] = make(30, 80);
  const auto r = dijkstra(g, {0}, [&](EdgeId e) { return len[e]; });
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    double sum = 0.0;
    for (const EdgeId e : r.path_edges(v)) sum += len[e];
    EXPECT_NEAR(sum, r.dist[v], 1e-9);
  }
}

TEST_P(RandomGraphTest, LandmarkBoundsAreAdmissibleAndUseful) {
  const auto [g, len] = make(50, 150);
  const auto length = [&](EdgeId e) { return len[e]; };
  Landmarks lm(g, length, 4);
  EXPECT_EQ(lm.count(), 4u);
  Rng rng(GetParam() + 1);
  for (int trial = 0; trial < 30; ++trial) {
    const auto s = static_cast<VertexId>(rng.uniform(g.num_vertices()));
    const auto r = dijkstra(g, {s}, length);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_LE(lm.lower_bound(s, v), r.dist[v] + 1e-9)
          << "landmark bound must never exceed the true distance";
    }
  }
  // The bound from a landmark to itself is exact along its own table.
  const VertexId l0 = lm.landmark(0);
  const auto r0 = dijkstra(g, {l0}, length);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(lm.lower_bound(l0, v), r0.dist[v], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphTest,
                         ::testing::Values(11, 12, 13, 14, 15));

}  // namespace
}  // namespace cdst
