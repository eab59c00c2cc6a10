// Differential tests of the direction-optimizing traversal kernel: hybrid
// and pure top-down expansions must produce identical dist/σ arrays (σ
// sums are integer-valued doubles — exact, order-independent), and the
// path sampler must emit bitwise-identical samples for a fixed seed
// whichever direction discovered the meeting nodes.

#include <vector>

#include <gtest/gtest.h>

#include "bc/brandes.h"
#include "bc/path_sampler.h"
#include "bicomp/isp.h"
#include "graph/bfs.h"
#include "graph/generators.h"
#include "test_util.h"
#include "util/rng.h"

namespace saphyra {
namespace {

using testing::MakeGraph;
using testing::RandomConnectedGraph;

Graph StarGraph(NodeId leaves) {
  GraphBuilder b;
  for (NodeId v = 1; v <= leaves; ++v) b.AddEdge(0, v);
  Graph g;
  EXPECT_TRUE(b.Build(leaves + 1, &g).ok());
  return g;
}

Graph PathGraph(NodeId n) {
  GraphBuilder b;
  for (NodeId v = 0; v + 1 < n; ++v) b.AddEdge(v, v + 1);
  Graph g;
  EXPECT_TRUE(b.Build(n, &g).ok());
  return g;
}

std::vector<Graph> DifferentialFixtures() {
  std::vector<Graph> graphs;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    graphs.push_back(RandomConnectedGraph(120, 0.08, seed));
  }
  graphs.push_back(StarGraph(300));   // one dense level: bottom-up fires
  graphs.push_back(PathGraph(200));   // frontiers of one: never fires
  graphs.push_back(RoadGrid(20, 17, 0.9, 5).graph);   // grid
  graphs.push_back(BarabasiAlbert(400, 4, 9));        // social profile
  return graphs;
}

TEST(BfsHybridDifferential, IdenticalDistAndSigmaOnAllFixtures) {
  for (const Graph& g : DifferentialFixtures()) {
    for (NodeId s = 0; s < g.num_nodes(); s += 13) {
      SpDag top = BfsWithCounts(g, s, TraversalPolicy::kTopDown);
      SpDag hyb = BfsWithCounts(g, s, TraversalPolicy::kHybrid);
      // Bitwise-equal arrays: EXPECT_EQ on vector<double> compares ==,
      // which for these integer-valued path counts is exact equality.
      EXPECT_EQ(top.dist, hyb.dist) << g.DebugString() << " s=" << s;
      EXPECT_EQ(top.sigma, hyb.sigma) << g.DebugString() << " s=" << s;
      // Both orders are level-grouped even if they differ within levels.
      for (size_t i = 1; i < hyb.order.size(); ++i) {
        EXPECT_LE(hyb.dist[hyb.order[i - 1]], hyb.dist[hyb.order[i]]);
      }
      EXPECT_EQ(top.order.size(), hyb.order.size());
    }
  }
}

TEST(BfsHybridDifferential, BottomUpActuallyFiresOnDenseFrontiers) {
  // A star from a leaf puts (n-1) frontier arcs against ~n unexplored
  // arcs at the hub level — the heuristic must flip.
  Graph star = StarGraph(300);
  BfsKernel kernel(star, TraversalPolicy::kHybrid);
  kernel.Run(1);
  EXPECT_GT(kernel.last_bottom_up_levels(), 0u);
  // And a path graph must never flip (two frontier arcs forever).
  Graph path = PathGraph(200);
  BfsKernel pk(path, TraversalPolicy::kHybrid);
  pk.Run(0);
  EXPECT_EQ(pk.last_bottom_up_levels(), 0u);
}

TEST(BfsHybridDifferential, KernelReuseMatchesFreshRuns) {
  // One kernel across many sources (the Brandes pattern) must agree with
  // fresh allocating runs — the epoch reset may not leak state.
  Graph g = RandomConnectedGraph(150, 0.05, 3);
  BfsKernel kernel(g, TraversalPolicy::kHybrid);
  for (NodeId s = 0; s < g.num_nodes(); s += 11) {
    kernel.Run(s);
    SpDag fresh = BfsWithCounts(g, s, TraversalPolicy::kTopDown);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(kernel.dist(v), fresh.dist[v]);
      EXPECT_EQ(kernel.sigma(v), fresh.sigma[v]);
    }
  }
}

TEST(BfsHybridDifferential, BrandesPolicyIndependentWithinTolerance) {
  Graph g = RandomConnectedGraph(80, 0.06, 11);
  std::vector<double> top = BrandesBetweenness(g, TraversalPolicy::kTopDown);
  std::vector<double> hyb = BrandesBetweenness(g, TraversalPolicy::kHybrid);
  ASSERT_EQ(top.size(), hyb.size());
  for (size_t v = 0; v < top.size(); ++v) {
    // δ accumulation order differs within levels, so allow ulp-scale noise.
    EXPECT_NEAR(top[v], hyb[v], 1e-12) << v;
  }
}

/// Drives both policies through the same RNG stream and asserts the
/// sampled paths are bitwise identical — the contract that lets the
/// determinism stress run with the hybrid kernel on and off.
void ExpectSamplerPolicyInvariant(PathSampler& a, PathSampler& b,
                                  const std::vector<NodeId>& nodes,
                                  SamplingStrategy strategy, uint64_t seed) {
  a.set_traversal(TraversalPolicy::kTopDown);
  b.set_traversal(TraversalPolicy::kHybrid);
  Rng rng_a(seed), rng_b(seed);
  PathSample pa, pb;
  for (size_t i = 0; i + 1 < nodes.size(); ++i) {
    NodeId s = nodes[i], t = nodes[i + 1];
    if (s == t) continue;
    bool ok_a = a.SampleUniformPath(s, t, strategy, &rng_a, &pa);
    bool ok_b = b.SampleUniformPath(s, t, strategy, &rng_b, &pb);
    ASSERT_EQ(ok_a, ok_b);
    if (!ok_a) continue;
    EXPECT_EQ(pa.nodes, pb.nodes) << "s=" << s << " t=" << t;
    EXPECT_EQ(pa.num_paths, pb.num_paths);
    EXPECT_EQ(pa.length, pb.length);
  }
}

TEST(PathSamplerHybridDifferential, GlobalSubstrateBothStrategies) {
  Graph g = BarabasiAlbert(500, 5, 21);
  std::vector<NodeId> nodes;
  Rng pick(7);
  for (int i = 0; i < 400; ++i) {
    nodes.push_back(static_cast<NodeId>(pick.UniformInt(g.num_nodes())));
  }
  for (SamplingStrategy strategy : {SamplingStrategy::kBidirectional,
                                    SamplingStrategy::kUnidirectional}) {
    PathSampler a(g, nullptr), b(g, nullptr);
    ExpectSamplerPolicyInvariant(a, b, nodes, strategy, 99);
  }
}

TEST(PathSamplerHybridDifferential, ComponentViewSubstrate) {
  // Road-like graph: many biconnected components, including a grid core.
  Graph g = RoadGrid(25, 20, 0.85, 31).graph;
  IspIndex isp(g);
  PathSampler a(g, &isp.views()), b(g, &isp.views());
  a.set_traversal(TraversalPolicy::kTopDown);
  b.set_traversal(TraversalPolicy::kHybrid);
  Rng rng_a(5), rng_b(5);
  Rng pick(3);
  PathSample pa, pb;
  uint32_t sampled = 0;
  for (uint32_t c = 0; c < isp.views().num_components() && sampled < 500;
       ++c) {
    const NodeId size = isp.views().size(c);
    if (size < 3) continue;
    for (int i = 0; i < 20; ++i, ++sampled) {
      NodeId ls = static_cast<NodeId>(pick.UniformInt(size));
      NodeId lt = static_cast<NodeId>(pick.UniformInt(size));
      if (ls == lt) continue;
      ASSERT_TRUE(a.SampleRestrictedPath(
          c, ls, lt, SamplingStrategy::kBidirectional, &rng_a, &pa));
      ASSERT_TRUE(b.SampleRestrictedPath(
          c, ls, lt, SamplingStrategy::kBidirectional, &rng_b, &pb));
      EXPECT_EQ(pa.nodes, pb.nodes);
      EXPECT_EQ(pa.num_paths, pb.num_paths);
    }
  }
  EXPECT_GT(sampled, 0u);
}

TEST(PathSamplerHybridDifferential, HybridFiresOnDenseComponent) {
  // Unidirectional sampling across a star hub floods the dense level; the
  // hybrid sampler must have pulled at least once over the whole run.
  Graph g = StarGraph(400);
  PathSampler sampler(g, nullptr);
  sampler.set_traversal(TraversalPolicy::kHybrid);
  Rng rng(1);
  PathSample path;
  uint32_t bottom_up = 0;
  for (NodeId t = 1; t <= 50; ++t) {
    ASSERT_TRUE(sampler.SampleUniformPath(
        1, t == 1 ? 51 : t, SamplingStrategy::kUnidirectional, &rng, &path));
    bottom_up += sampler.last_bottom_up_levels();
  }
  EXPECT_GT(bottom_up, 0u);
}

}  // namespace
}  // namespace saphyra
