#include "bicomp/biconnected.h"

#include <set>

#include <gtest/gtest.h>

#include "bicomp_test_util.h"
#include "graph/connectivity.h"
#include "graph/generators.h"
#include "test_util.h"

namespace saphyra {
namespace {

using testing::CanonicalReference;
using testing::Canonicalize;
using testing::MakeGraph;
using testing::PaperFig2Graph;
using testing::RandomConnectedGraph;

// Component id of the undirected edge {u, v}.
uint32_t EdgeComp(const Graph& g, const BiconnectedComponents& bcc, NodeId u,
                  NodeId v) {
  auto nbr = g.neighbors(u);
  for (size_t i = 0; i < nbr.size(); ++i) {
    if (nbr[i] == v) return bcc.arc_component[g.offset(u) + i];
  }
  return kInvalidComp;
}

// Hand-graph structural expectations. They only use canonical structure —
// component counts, cutpoint sets, label (in)equalities — plus the id
// order the canonicalization contract fixes; the generated-graph sweep
// against the reference is bicomp_differential_test.cc's job.
TEST(Biconnected, SingleEdge) {
  Graph g = MakeGraph(2, {{0, 1}});
  auto bcc = ComputeBiconnectedComponents(g);
  EXPECT_EQ(bcc.num_components, 1u);
  EXPECT_FALSE(bcc.is_cutpoint[0]);
  EXPECT_FALSE(bcc.is_cutpoint[1]);
}

TEST(Biconnected, TriangleIsOneComponent) {
  Graph g = MakeGraph(3, {{0, 1}, {1, 2}, {2, 0}});
  auto bcc = ComputeBiconnectedComponents(g);
  EXPECT_EQ(bcc.num_components, 1u);
  for (NodeId v = 0; v < 3; ++v) EXPECT_FALSE(bcc.is_cutpoint[v]);
  EXPECT_EQ(bcc.component_nodes[0].size(), 3u);
}

TEST(Biconnected, PathGraphAllBridges) {
  Graph g = MakeGraph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  auto bcc = ComputeBiconnectedComponents(g);
  EXPECT_EQ(bcc.num_components, 4u);
  EXPECT_FALSE(bcc.is_cutpoint[0]);
  EXPECT_TRUE(bcc.is_cutpoint[1]);
  EXPECT_TRUE(bcc.is_cutpoint[2]);
  EXPECT_TRUE(bcc.is_cutpoint[3]);
  EXPECT_FALSE(bcc.is_cutpoint[4]);
}

TEST(Biconnected, StarCenterIsCutpoint) {
  Graph g = MakeGraph(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  auto bcc = ComputeBiconnectedComponents(g);
  EXPECT_EQ(bcc.num_components, 4u);
  EXPECT_TRUE(bcc.is_cutpoint[0]);
  EXPECT_EQ(bcc.NumComponentsOf(0), 4u);
  for (NodeId v = 1; v < 5; ++v) {
    EXPECT_FALSE(bcc.is_cutpoint[v]);
    EXPECT_EQ(bcc.NumComponentsOf(v), 1u);
  }
}

TEST(Biconnected, PaperFig2Structure) {
  Graph g = PaperFig2Graph();
  auto bcc = ComputeBiconnectedComponents(g);
  // Five components: pentagon {a,b,c,d,e}, triangle {c,g,h}, bridge {d,f},
  // bridge {d,i}, triangle {i,j,k}.
  EXPECT_EQ(bcc.num_components, 5u);
  // Cutpoints are exactly c(2), d(3), i(8).
  std::set<NodeId> cutpoints;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (bcc.is_cutpoint[v]) cutpoints.insert(v);
  }
  EXPECT_EQ(cutpoints, (std::set<NodeId>{2, 3, 8}));
  // The pentagon's edges all share one component.
  uint32_t pent = EdgeComp(g, bcc, 0, 1);
  EXPECT_EQ(EdgeComp(g, bcc, 1, 2), pent);
  EXPECT_EQ(EdgeComp(g, bcc, 2, 3), pent);
  EXPECT_EQ(EdgeComp(g, bcc, 3, 4), pent);
  EXPECT_EQ(EdgeComp(g, bcc, 4, 0), pent);
  // The bridges are their own components.
  EXPECT_NE(EdgeComp(g, bcc, 3, 5), pent);
  EXPECT_NE(EdgeComp(g, bcc, 3, 8), EdgeComp(g, bcc, 3, 5));
  // d belongs to 3 components, c and i to 2.
  EXPECT_EQ(bcc.NumComponentsOf(3), 3u);
  EXPECT_EQ(bcc.NumComponentsOf(2), 2u);
  EXPECT_EQ(bcc.NumComponentsOf(8), 2u);
}

TEST(Biconnected, BothArcDirectionsShareLabel) {
  Graph g = PaperFig2Graph();
  auto bcc = ComputeBiconnectedComponents(g);
  for (auto [u, v] : g.UndirectedEdges()) {
    EXPECT_EQ(EdgeComp(g, bcc, u, v), EdgeComp(g, bcc, v, u));
  }
}

TEST(Biconnected, DisconnectedGraphHandled) {
  // Triangle + separate path.
  Graph g = MakeGraph(6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}});
  auto bcc = ComputeBiconnectedComponents(g);
  EXPECT_EQ(bcc.num_components, 3u);
  EXPECT_TRUE(bcc.is_cutpoint[4]);
  EXPECT_FALSE(bcc.is_cutpoint[0]);
}

TEST(Biconnected, IsolatedNodeHasNoComponent) {
  Graph g = MakeGraph(3, {{0, 1}});
  auto bcc = ComputeBiconnectedComponents(g);
  EXPECT_EQ(bcc.node_component[2], kInvalidComp);
  EXPECT_EQ(bcc.NumComponentsOf(2), 0u);
}

TEST(Biconnected, ComponentIdsAreCanonical) {
  // The canonicalization contract (biconnected.h): component ids ascend
  // with each component's smallest CSR arc index.
  Graph g = PaperFig2Graph();
  auto bcc = ComputeBiconnectedComponents(g);
  std::vector<EdgeIndex> min_arc(bcc.num_components, g.num_arcs());
  for (EdgeIndex e = 0; e < g.num_arcs(); ++e) {
    uint32_t c = bcc.arc_component[e];
    ASSERT_LT(c, bcc.num_components);
    min_arc[c] = std::min(min_arc[c], e);
  }
  for (uint32_t c = 1; c < bcc.num_components; ++c) {
    EXPECT_LT(min_arc[c - 1], min_arc[c]);
  }
}

// Property sweep against an independent recursive reference implementation.
class BiconnectedRandomized : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BiconnectedRandomized, MatchesReferenceImplementation) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  NodeId n = 5 + static_cast<NodeId>(rng.UniformInt(40));
  double extra = rng.UniformDouble() * 0.15;
  Graph g = RandomConnectedGraph(n, extra, seed * 31 + 1);
  EXPECT_EQ(Canonicalize(g, ComputeBiconnectedComponents(g)),
            CanonicalReference(g));
}

TEST_P(BiconnectedRandomized, CutpointMatchesRemovalOracle) {
  Graph g = RandomConnectedGraph(24, 0.08, GetParam() + 500);
  auto bcc = ComputeBiconnectedComponents(g);
  ComponentLabels base = ConnectedComponents(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    // Remove v and count components among the remaining nodes.
    GraphBuilder b;
    for (auto [x, y] : g.UndirectedEdges()) {
      if (x != v && y != v) b.AddEdge(x, y);
    }
    Graph h;
    ASSERT_TRUE(b.Build(g.num_nodes(), &h).ok());
    ComponentLabels labels = ConnectedComponents(h);
    // Ignore v's own singleton; compare against the original count.
    uint32_t removed_components = labels.num_components() - 1;
    bool increases = removed_components > base.num_components();
    EXPECT_EQ(bcc.is_cutpoint[v] != 0, increases) << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BiconnectedRandomized,
                         ::testing::Range<uint64_t>(0, 10));

TEST(ReverseArcs, InverseMapping) {
  Graph g = PaperFig2Graph();
  auto rev = ComputeReverseArcs(g);
  ASSERT_EQ(rev.size(), g.num_arcs());
  for (EdgeIndex e = 0; e < g.num_arcs(); ++e) {
    EXPECT_EQ(rev[rev[e]], e);
    EXPECT_NE(rev[e], e);
  }
}

// Structured family: trees of varying size — every edge its own component,
// every internal node a cutpoint.
class TreeBcc : public ::testing::TestWithParam<NodeId> {};

TEST_P(TreeBcc, TreesDecomposeIntoBridges) {
  Graph g = RandomTree(GetParam(), 777);
  auto bcc = ComputeBiconnectedComponents(g);
  EXPECT_EQ(bcc.num_components, g.num_edges());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(bcc.is_cutpoint[v] != 0, g.degree(v) >= 2) << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TreeBcc,
                         ::testing::Values(2, 3, 5, 10, 50, 200));

}  // namespace
}  // namespace saphyra
