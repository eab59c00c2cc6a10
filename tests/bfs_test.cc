#include "graph/bfs.h"

#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "test_util.h"

namespace saphyra {
namespace {

using testing::AllShortestPaths;
using testing::MakeGraph;
using testing::RandomConnectedGraph;

// Floyd–Warshall oracle for hop distances.
std::vector<std::vector<uint32_t>> FloydWarshall(const Graph& g) {
  const NodeId n = g.num_nodes();
  const uint32_t inf = kUnreachable / 2;
  std::vector<std::vector<uint32_t>> d(n, std::vector<uint32_t>(n, inf));
  for (NodeId v = 0; v < n; ++v) d[v][v] = 0;
  for (auto [u, v] : g.UndirectedEdges()) d[u][v] = d[v][u] = 1;
  for (NodeId k = 0; k < n; ++k) {
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = 0; j < n; ++j) {
        d[i][j] = std::min(d[i][j], d[i][k] + d[k][j]);
      }
    }
  }
  return d;
}

TEST(Bfs, PathGraphDistances) {
  Graph g = MakeGraph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  BfsResult r = Bfs(g, 0);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(r.dist[v], v);
  EXPECT_EQ(r.order.front(), 0u);
  EXPECT_EQ(r.order.size(), 5u);
}

TEST(Bfs, UnreachableMarked) {
  Graph g = MakeGraph(4, {{0, 1}, {2, 3}});
  BfsResult r = Bfs(g, 0);
  EXPECT_EQ(r.dist[1], 1u);
  EXPECT_EQ(r.dist[2], kUnreachable);
  EXPECT_EQ(r.dist[3], kUnreachable);
}

TEST(Bfs, OrderIsNonDecreasingDistance) {
  Graph g = RandomConnectedGraph(60, 0.05, 3);
  BfsResult r = Bfs(g, 0);
  for (size_t i = 1; i < r.order.size(); ++i) {
    EXPECT_LE(r.dist[r.order[i - 1]], r.dist[r.order[i]]);
  }
}

class BfsRandomized : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BfsRandomized, DistancesMatchFloydWarshall) {
  Graph g = RandomConnectedGraph(40, 0.06, GetParam());
  auto fw = FloydWarshall(g);
  for (NodeId s = 0; s < g.num_nodes(); s += 7) {
    BfsResult r = Bfs(g, s);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(r.dist[v], fw[s][v]);
    }
  }
}

TEST_P(BfsRandomized, SigmaMatchesPathEnumeration) {
  Graph g = RandomConnectedGraph(25, 0.12, GetParam() + 100);
  for (NodeId s = 0; s < g.num_nodes(); s += 5) {
    SpDag dag = BfsWithCounts(g, s);
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      if (t == s) continue;
      auto paths = AllShortestPaths(g, s, t);
      EXPECT_DOUBLE_EQ(dag.sigma[t], static_cast<double>(paths.size()))
          << "s=" << s << " t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BfsRandomized,
                         ::testing::Range<uint64_t>(0, 8));

TEST(Eccentricity, PathEndpoints) {
  Graph g = MakeGraph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  EXPECT_EQ(Eccentricity(g, 0), 4u);
  EXPECT_EQ(Eccentricity(g, 2), 2u);
}

TEST(Diameter, BoundsSandwichExactValue) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Graph g = RandomConnectedGraph(50, 0.05, seed);
    uint32_t exact = ExactDiameter(g);
    EXPECT_LE(TwoSweepDiameterLowerBound(g), exact);
    EXPECT_GE(DiameterUpperBound(g), exact);
  }
}

TEST(Diameter, ExactOnPath) {
  Graph g = MakeGraph(7, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}});
  EXPECT_EQ(ExactDiameter(g), 6u);
  EXPECT_EQ(TwoSweepDiameterLowerBound(g), 6u);  // exact on trees
}

}  // namespace
}  // namespace saphyra
