#include "bicomp/component_view.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bc/path_sampler.h"
#include "bicomp/isp.h"
#include "graph/bfs.h"
#include "graph/generators.h"
#include "test_util.h"

namespace saphyra {
namespace {

using testing::AllShortestPaths;
using testing::MakeGraph;
using testing::PaperFig2Graph;
using testing::RandomConnectedGraph;

/// Every structural invariant of a ComponentViews against the decomposition
/// it was built from: member lists, relabeling bijection, per-node degrees,
/// arc counts, and sortedness of local adjacency.
void CheckViewsAgainstBcc(const Graph& g, const BiconnectedComponents& bcc,
                          const ComponentViews& views) {
  ASSERT_EQ(views.num_components(), bcc.num_components);
  EdgeIndex total_arcs = 0;
  NodeId max_size = 0;
  for (uint32_t c = 0; c < bcc.num_components; ++c) {
    const auto& members = bcc.component_nodes[c];
    ASSERT_EQ(views.size(c), members.size());
    max_size = std::max(max_size, static_cast<NodeId>(members.size()));
    auto view_nodes = views.nodes(c);
    for (size_t i = 0; i < members.size(); ++i) {
      EXPECT_EQ(view_nodes[i], members[i]);
      // Relabeling round-trips.
      EXPECT_EQ(views.ToGlobal(c, static_cast<NodeId>(i)), members[i]);
      EXPECT_EQ(views.ToLocal(c, members[i]), static_cast<NodeId>(i));
    }
    // Per-member adjacency matches the filtered enumeration of global arcs.
    for (size_t i = 0; i < members.size(); ++i) {
      const NodeId u = members[i];
      std::vector<NodeId> expected;  // global ids of u's comp-c neighbors
      const EdgeIndex base = g.offset(u);
      const auto nbr = g.neighbors(u);
      for (size_t j = 0; j < nbr.size(); ++j) {
        if (bcc.arc_component[base + j] == c) expected.push_back(nbr[j]);
      }
      const auto local_nbr = views.Neighbors(c, static_cast<NodeId>(i));
      ASSERT_EQ(views.Degree(c, static_cast<NodeId>(i)), expected.size());
      ASSERT_EQ(local_nbr.size(), expected.size());
      for (size_t j = 0; j < expected.size(); ++j) {
        EXPECT_EQ(views.ToGlobal(c, local_nbr[j]), expected[j]);
        if (j > 0) EXPECT_LT(local_nbr[j - 1], local_nbr[j]);  // sorted
      }
    }
    // Arc count of the view equals the arcs labeled c.
    EdgeIndex labeled = 0;
    for (EdgeIndex e = 0; e < g.num_arcs(); ++e) {
      if (bcc.arc_component[e] == c) ++labeled;
    }
    EXPECT_EQ(views.num_arcs(c), labeled);
    total_arcs += views.num_arcs(c);
  }
  // Every arc belongs to exactly one component view.
  EXPECT_EQ(total_arcs, g.num_arcs());
  EXPECT_EQ(views.max_component_size(), max_size);
}

TEST(ComponentViews, PaperFig2Invariants) {
  Graph g = PaperFig2Graph();
  auto bcc = ComputeBiconnectedComponents(g);
  ComponentViews views(g, bcc);
  CheckViewsAgainstBcc(g, bcc, views);
}

/// `g` with an isolated node inserted after every `stride` - 1 of its
/// nodes, so isolated ids interleave with the connected ones.
Graph WithIsolatedNodes(const Graph& g, NodeId stride) {
  auto spread = [stride](NodeId v) { return v + v / (stride - 1); };
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (const auto& [u, v] : g.UndirectedEdges()) {
    edges.emplace_back(spread(u), spread(v));
  }
  return MakeGraph(spread(g.num_nodes()) + 1, edges);
}

/// Two disjoint copies of `g` on the even and the odd ids.
Graph TwoInterleavedCopies(const Graph& g) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (const auto& [u, v] : g.UndirectedEdges()) {
    edges.emplace_back(2 * u, 2 * v);
    edges.emplace_back(2 * u + 1, 2 * v + 1);
  }
  return MakeGraph(2 * g.num_nodes(), edges);
}

TEST(ComponentViews, RandomGraphInvariants) {
  std::vector<std::pair<std::string, Graph>> cases;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    cases.emplace_back("random/" + std::to_string(seed),
                       RandomConnectedGraph(60, 0.05, seed));
  }
  // Hub cutpoints in hundreds of bridge blocks: a hub finds its one
  // neighbor in each bridge by binary search, not by scanning its list.
  cases.emplace_back("ba+leaves", testing::BaCoreWithLeaves(40, 3000, 7));
  // Many small blocks plus isolated nodes (no component at all).
  cases.emplace_back("road+isolated",
                     WithIsolatedNodes(RoadGrid(20, 20, 0.75, 3).graph, 8));
  // Two connected components: component ids interleave across them.
  cases.emplace_back("two components",
                     TwoInterleavedCopies(RandomConnectedGraph(40, 0.06, 9)));
  size_t max_cut_blocks = 0;
  for (const auto& [name, g] : cases) {
    SCOPED_TRACE(name);
    auto bcc = ComputeBiconnectedComponents(g);
    ComponentViews views(g, bcc);
    CheckViewsAgainstBcc(g, bcc, views);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      max_cut_blocks =
          std::max<size_t>(max_cut_blocks, bcc.NumComponentsOf(v));
    }
  }
  EXPECT_GE(max_cut_blocks, 150u);  // the hub case really is one
}

TEST(ComponentViews, LeafHeavyHubGraph) {
  // A hub with many bridges: every bridge is its own 2-node view and the
  // hub's local adjacency within a bridge has exactly one entry.
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  for (NodeId leaf = 3; leaf < 40; ++leaf) b.AddEdge(0, leaf);
  Graph g;
  ASSERT_TRUE(b.Build(40, &g).ok());
  auto bcc = ComputeBiconnectedComponents(g);
  ComponentViews views(g, bcc);
  CheckViewsAgainstBcc(g, bcc, views);
  int bridges = 0;
  for (uint32_t c = 0; c < views.num_components(); ++c) {
    if (views.size(c) == 2) {
      ++bridges;
      EXPECT_EQ(views.num_arcs(c), 2u);
      EXPECT_EQ(views.Degree(c, 0), 1u);
      EXPECT_EQ(views.Degree(c, 1), 1u);
    }
  }
  EXPECT_EQ(bridges, 37);
}

TEST(ComponentViews, ToLocalRejectsNonMembers) {
  Graph g = PaperFig2Graph();
  auto bcc = ComputeBiconnectedComponents(g);
  ComponentViews views(g, bcc);
  // Pentagon component {a,b,c,d,e} = {0..4}: f (5) is not a member.
  uint32_t pent = bcc.arc_component[g.offset(0)];
  EXPECT_EQ(views.ToLocal(pent, 5), kInvalidNode);
  EXPECT_NE(views.ToLocal(pent, 0), kInvalidNode);
}

TEST(ComponentViews, BuiltInsideIspIndex) {
  Graph g = RandomConnectedGraph(80, 0.04, 11);
  IspIndex isp(g);
  CheckViewsAgainstBcc(g, isp.bcc(), isp.views());
}

std::string PathKey(const std::vector<NodeId>& nodes) {
  std::string key;
  for (NodeId v : nodes) {
    key += std::to_string(v);
    key += ',';
  }
  return key;
}

TEST(ComponentViewSampling, RestrictedPathsStayInComponent) {
  Graph g = PaperFig2Graph();
  IspIndex isp(g);
  PathSampler sampler(g, &isp.views());
  Rng rng(9);
  PathSample path;
  uint32_t pent = isp.bcc().arc_component[g.offset(0)];
  std::set<NodeId> pent_nodes(isp.bcc().component_nodes[pent].begin(),
                              isp.bcc().component_nodes[pent].end());
  for (int i = 0; i < 2000; ++i) {
    const NodeId ls = static_cast<NodeId>(rng.UniformInt(5));
    const NodeId lt = static_cast<NodeId>(rng.UniformInt(5));
    if (ls == lt) continue;
    ASSERT_TRUE(sampler.SampleRestrictedPath(pent, ls, lt,
                                             SamplingStrategy::kBidirectional,
                                             &rng, &path));
    EXPECT_EQ(path.nodes.front(), isp.bcc().component_nodes[pent][ls]);
    EXPECT_EQ(path.nodes.back(), isp.bcc().component_nodes[pent][lt]);
    for (NodeId v : path.nodes) ASSERT_TRUE(pent_nodes.count(v) > 0);
    for (size_t j = 1; j < path.nodes.size(); ++j) {
      EXPECT_TRUE(g.HasEdge(path.nodes[j - 1], path.nodes[j]));
    }
  }
}

/// The Fig. 2 distribution check: the view path's frequencies must match
/// the exact law. Endpoints are drawn uniformly from the pentagon's five
/// members (s == t draws are skipped but counted), and the path is uniform
/// over the σ_st shortest s-t paths, which never leave the block.
TEST(ComponentViewSampling, Fig2DistributionMatchesExactLaw) {
  Graph g = PaperFig2Graph();
  IspIndex isp(g);
  uint32_t pent = isp.bcc().arc_component[g.offset(0)];
  const auto& members = isp.bcc().component_nodes[pent];
  ASSERT_EQ(members.size(), 5u);

  std::map<std::string, double> expected;
  for (NodeId s : members) {
    for (NodeId t : members) {
      if (s == t) continue;
      const auto paths = AllShortestPaths(g, s, t);
      ASSERT_FALSE(paths.empty());
      for (const auto& p : paths) {
        expected[PathKey(p)] += 1.0 / 25.0 / static_cast<double>(paths.size());
      }
    }
  }

  PathSampler view(g, &isp.views());
  constexpr int kDraws = 60000;
  std::map<std::string, int> view_counts;
  PathSample path;
  Rng rng(21);
  for (int i = 0; i < kDraws; ++i) {
    const NodeId ls = static_cast<NodeId>(rng.UniformInt(5));
    const NodeId lt = static_cast<NodeId>(rng.UniformInt(5));
    if (ls == lt) continue;
    ASSERT_TRUE(view.SampleRestrictedPath(
        pent, ls, lt, SamplingStrategy::kBidirectional, &rng, &path));
    ++view_counts[PathKey(path.nodes)];
  }
  // Same support...
  for (auto& [key, n] : view_counts) {
    ASSERT_TRUE(expected.count(key) > 0) << "unexpected path " << key;
  }
  for (auto& [key, p] : expected) {
    // ...and matching frequencies.
    double pv = view_counts[key] / static_cast<double>(kDraws);
    EXPECT_NEAR(pv, p, 0.012 + 4.0 * std::sqrt(p / kDraws)) << key;
  }
}

/// The block's induced subgraph, relabeled by position in the member list
/// (ascending global ids, so local ids match the view's). A block holds
/// every edge between two of its members: two blocks share at most one
/// vertex, so no such edge can belong to another block.
Graph BlockSubgraph(const Graph& g, std::span<const NodeId> members) {
  GraphBuilder b;
  for (NodeId lu = 0; lu < members.size(); ++lu) {
    for (NodeId v : g.neighbors(members[lu])) {
      auto it = std::lower_bound(members.begin(), members.end(), v);
      if (it != members.end() && *it == v) {
        b.AddEdge(lu, static_cast<NodeId>(it - members.begin()));
      }
    }
  }
  Graph sub;
  Status st = b.Build(static_cast<NodeId>(members.size()), &sub);
  SAPHYRA_CHECK_MSG(st.ok(), st.ToString().c_str());
  return sub;
}

TEST(ComponentViewSampling, SigmaMatchesBlockSubgraphBfsOnRandomGraphs) {
  // Small random graphs have shallow searches; the thinned grids add
  // blocks whose shortest paths are long and numerous, where σ sums over
  // several parents with σ > 1.
  std::vector<Graph> graphs;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    graphs.push_back(RandomConnectedGraph(40, 0.08, seed + 100));
  }
  for (uint64_t seed = 0; seed < 2; ++seed) {
    graphs.push_back(RoadGrid(12, 12, 0.85, seed + 7).graph);
  }
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    const Graph& g = graphs[gi];
    IspIndex isp(g);
    PathSampler view(g, &isp.views());
    Rng rng(gi);
    PathSample pv;
    for (int i = 0; i < 200; ++i) {
      uint32_t c = static_cast<uint32_t>(
          rng.UniformInt(isp.bcc().num_components));
      const auto& nodes = isp.bcc().component_nodes[c];
      if (nodes.size() < 2) continue;
      const NodeId ls = static_cast<NodeId>(rng.UniformInt(nodes.size()));
      const NodeId lt = static_cast<NodeId>(rng.UniformInt(nodes.size()));
      if (ls == lt) continue;
      ASSERT_TRUE(view.SampleRestrictedPath(
          c, ls, lt, SamplingStrategy::kBidirectional, &rng, &pv));
      // σ_st and the shortest-path length are deterministic quantities:
      // the view sampler must reproduce the block subgraph's BFS exactly.
      const SpDag dag = BfsWithCounts(BlockSubgraph(g, nodes), ls);
      EXPECT_DOUBLE_EQ(pv.num_paths, dag.sigma[lt]);
      EXPECT_EQ(pv.length, dag.dist[lt]);
    }
  }
}

TEST(ComponentViewSampling, UnidirectionalAgreesWithBidirectional) {
  Graph g = RandomConnectedGraph(40, 0.08, 55);
  IspIndex isp(g);
  PathSampler sampler(g, &isp.views());
  Rng rng(56);
  PathSample bi, uni;
  for (int i = 0; i < 200; ++i) {
    uint32_t c =
        static_cast<uint32_t>(rng.UniformInt(isp.bcc().num_components));
    const auto& nodes = isp.bcc().component_nodes[c];
    if (nodes.size() < 2) continue;
    const NodeId s = static_cast<NodeId>(rng.UniformInt(nodes.size()));
    const NodeId t = static_cast<NodeId>(rng.UniformInt(nodes.size()));
    if (s == t) continue;
    ASSERT_TRUE(sampler.SampleRestrictedPath(
        c, s, t, SamplingStrategy::kBidirectional, &rng, &bi));
    ASSERT_TRUE(sampler.SampleRestrictedPath(
        c, s, t, SamplingStrategy::kUnidirectional, &rng, &uni));
    EXPECT_EQ(bi.length, uni.length);
    EXPECT_DOUBLE_EQ(bi.num_paths, uni.num_paths);
  }
}

TEST(ComponentViewSampling, UnrestrictedSamplingStillWorks) {
  // A views-constructed sampler must still serve unrestricted requests
  // over the global graph.
  Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 3}});
  auto bcc = ComputeBiconnectedComponents(g);
  ComponentViews views(g, bcc);
  PathSampler sampler(g, &views);
  Rng rng(1);
  PathSample path;
  ASSERT_TRUE(sampler.SampleUniformPath(
      0, 3, SamplingStrategy::kBidirectional, &rng, &path));
  EXPECT_EQ(path.nodes, (std::vector<NodeId>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace saphyra
