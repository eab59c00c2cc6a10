#include "bc/path_sampler.h"

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "bicomp/biconnected.h"
#include "bicomp/component_view.h"
#include "graph/generators.h"
#include "test_util.h"

namespace saphyra {
namespace {

using testing::AllShortestPaths;
using testing::MakeGraph;
using testing::PaperFig2Graph;
using testing::RandomConnectedGraph;

std::string PathKey(const std::vector<NodeId>& nodes) {
  std::string key;
  for (NodeId v : nodes) {
    key += std::to_string(v);
    key += ',';
  }
  return key;
}

class PathSamplerStrategies
    : public ::testing::TestWithParam<SamplingStrategy> {};

TEST_P(PathSamplerStrategies, FindsTheUniquePath) {
  Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 3}});
  PathSampler sampler(g, nullptr);
  Rng rng(1);
  PathSample path;
  ASSERT_TRUE(sampler.SampleUniformPath(0, 3, GetParam(), &rng, &path));
  EXPECT_EQ(path.nodes, (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(path.length, 3u);
  EXPECT_DOUBLE_EQ(path.num_paths, 1.0);
}

TEST_P(PathSamplerStrategies, AdjacentPairIsLengthOne) {
  Graph g = MakeGraph(3, {{0, 1}, {1, 2}});
  PathSampler sampler(g, nullptr);
  Rng rng(2);
  PathSample path;
  ASSERT_TRUE(sampler.SampleUniformPath(0, 1, GetParam(), &rng, &path));
  EXPECT_EQ(path.nodes, (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(path.length, 1u);
}

TEST_P(PathSamplerStrategies, UnreachableReturnsFalse) {
  Graph g = MakeGraph(4, {{0, 1}, {2, 3}});
  PathSampler sampler(g, nullptr);
  Rng rng(3);
  PathSample path;
  EXPECT_FALSE(sampler.SampleUniformPath(0, 3, GetParam(), &rng, &path));
  EXPECT_FALSE(path.found);
}

TEST_P(PathSamplerStrategies, CountsAllShortestPaths) {
  // 4-cycle: two shortest paths between opposite corners.
  Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  PathSampler sampler(g, nullptr);
  Rng rng(4);
  PathSample path;
  ASSERT_TRUE(sampler.SampleUniformPath(0, 2, GetParam(), &rng, &path));
  EXPECT_DOUBLE_EQ(path.num_paths, 2.0);
  EXPECT_EQ(path.length, 2u);
}

TEST_P(PathSamplerStrategies, SigmaMatchesEnumerationOnRandomGraphs) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Graph g = RandomConnectedGraph(20, 0.15, seed);
    PathSampler sampler(g, nullptr);
    Rng rng(seed);
    PathSample path;
    for (NodeId s = 0; s < g.num_nodes(); s += 3) {
      for (NodeId t = 0; t < g.num_nodes(); t += 2) {
        if (s == t) continue;
        auto paths = AllShortestPaths(g, s, t);
        ASSERT_TRUE(sampler.SampleUniformPath(s, t, GetParam(), &rng, &path));
        EXPECT_DOUBLE_EQ(path.num_paths,
                         static_cast<double>(paths.size()))
            << s << "->" << t;
        EXPECT_EQ(path.length, paths[0].size() - 1);
      }
    }
  }
}

TEST_P(PathSamplerStrategies, SampledPathsAreValidShortestPaths) {
  Graph g = RandomConnectedGraph(30, 0.1, 77);
  PathSampler sampler(g, nullptr);
  Rng rng(78);
  PathSample path;
  for (int i = 0; i < 500; ++i) {
    NodeId s = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
    NodeId t = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
    if (s == t) continue;
    ASSERT_TRUE(sampler.SampleUniformPath(s, t, GetParam(), &rng, &path));
    ASSERT_GE(path.nodes.size(), 2u);
    EXPECT_EQ(path.nodes.front(), s);
    EXPECT_EQ(path.nodes.back(), t);
    // Consecutive nodes adjacent; length consistent.
    for (size_t j = 1; j < path.nodes.size(); ++j) {
      EXPECT_TRUE(g.HasEdge(path.nodes[j - 1], path.nodes[j]));
    }
    EXPECT_EQ(path.length + 1, path.nodes.size());
  }
}

TEST_P(PathSamplerStrategies, UniformOverAllShortestPaths) {
  // Two parallel 2-hop routes plus structure: verify empirical uniformity.
  Graph g = MakeGraph(6, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}});
  PathSampler sampler(g, nullptr);
  Rng rng(5);
  PathSample path;
  auto expected = AllShortestPaths(g, 0, 5);
  ASSERT_EQ(expected.size(), 2u);
  std::map<std::string, int> counts;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    ASSERT_TRUE(sampler.SampleUniformPath(0, 5, GetParam(), &rng, &path));
    ++counts[PathKey(path.nodes)];
  }
  ASSERT_EQ(counts.size(), 2u);
  for (auto& [key, c] : counts) {
    EXPECT_NEAR(c / static_cast<double>(kDraws), 0.5, 0.02) << key;
  }
}

TEST_P(PathSamplerStrategies, UniformityOnDiamondLattice) {
  // 2x3 grid: many equal-length paths between opposite corners.
  Graph g = MakeGraph(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5},
                          {0, 3}, {1, 4}, {2, 5}});
  auto expected = AllShortestPaths(g, 0, 5);
  ASSERT_EQ(expected.size(), 3u);  // RRD, RDR, DRR
  PathSampler sampler(g, nullptr);
  Rng rng(6);
  PathSample path;
  std::map<std::string, int> counts;
  constexpr int kDraws = 30000;
  for (int i = 0; i < kDraws; ++i) {
    ASSERT_TRUE(sampler.SampleUniformPath(0, 5, GetParam(), &rng, &path));
    ++counts[PathKey(path.nodes)];
  }
  ASSERT_EQ(counts.size(), 3u);
  for (auto& [key, c] : counts) {
    EXPECT_NEAR(c / static_cast<double>(kDraws), 1.0 / 3.0, 0.02) << key;
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, PathSamplerStrategies,
                         ::testing::Values(SamplingStrategy::kBidirectional,
                                           SamplingStrategy::kUnidirectional));

TEST(PathSampler, ComponentRestrictionStaysInComponent) {
  Graph g = PaperFig2Graph();
  auto bcc = ComputeBiconnectedComponents(g);
  ComponentViews views(g, bcc);
  PathSampler sampler(g, &views);
  Rng rng(9);
  PathSample path;
  // Pentagon component: find its id via edge (0,1).
  uint32_t pent = bcc.arc_component[g.offset(0)];
  std::set<NodeId> pent_nodes(bcc.component_nodes[pent].begin(),
                              bcc.component_nodes[pent].end());
  for (int i = 0; i < 2000; ++i) {
    // Sample paths between pentagon members only.
    const NodeId s = static_cast<NodeId>(rng.UniformInt(5));
    const NodeId t = static_cast<NodeId>(rng.UniformInt(5));
    if (s == t) continue;
    ASSERT_TRUE(sampler.SampleRestrictedPath(pent, s, t,
                                             SamplingStrategy::kBidirectional,
                                             &rng, &path));
    for (NodeId v : path.nodes) ASSERT_TRUE(pent_nodes.count(v) > 0);
  }
}

TEST(PathSampler, RestrictionChangesDistances) {
  // Square with a chord through an external path: restricting to the square
  // component forces the in-square route.
  Graph g = MakeGraph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {1, 4}});
  auto bcc = ComputeBiconnectedComponents(g);
  uint32_t square = bcc.arc_component[g.offset(0)];
  ComponentViews views(g, bcc);
  PathSampler sampler(g, &views);
  Rng rng(10);
  PathSample path;
  ASSERT_TRUE(sampler.SampleRestrictedPath(
      square, views.ToLocal(square, 0), views.ToLocal(square, 2),
      SamplingStrategy::kBidirectional, &rng, &path));
  EXPECT_EQ(path.length, 2u);
  EXPECT_DOUBLE_EQ(path.num_paths, 2.0);
}

TEST(PathSampler, BidirectionalAgreesWithUnidirectionalSigma) {
  Graph g = RandomConnectedGraph(40, 0.08, 55);
  PathSampler sampler(g, nullptr);
  Rng rng(56);
  PathSample bi, uni;
  for (int i = 0; i < 300; ++i) {
    NodeId s = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
    NodeId t = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
    if (s == t) continue;
    ASSERT_TRUE(sampler.SampleUniformPath(
        s, t, SamplingStrategy::kBidirectional, &rng, &bi));
    ASSERT_TRUE(sampler.SampleUniformPath(
        s, t, SamplingStrategy::kUnidirectional, &rng, &uni));
    EXPECT_EQ(bi.length, uni.length);
    EXPECT_DOUBLE_EQ(bi.num_paths, uni.num_paths);
  }
}

TEST(PathSampler, ArcsScannedReported) {
  Graph g = RandomConnectedGraph(50, 0.05, 60);
  PathSampler sampler(g, nullptr);
  Rng rng(61);
  PathSample path;
  ASSERT_TRUE(sampler.SampleUniformPath(0, 49,
                                        SamplingStrategy::kBidirectional,
                                        &rng, &path));
  EXPECT_GT(sampler.last_arcs_scanned(), 0u);
  // Each side scans every directed arc at most once.
  EXPECT_LE(sampler.last_arcs_scanned(), 2 * g.num_arcs());
}

}  // namespace
}  // namespace saphyra
