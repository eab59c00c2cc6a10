// Differential-oracle harness for the biconnected decomposition: every
// generated graph runs the iterative Hopcroft–Tarjan pass and the
// independent recursive ReferenceBcc, asserting canonical equivalence (same
// articulation points, same edge partition) and the canonical id order
// behind `.sgr` invariance. Deep path/comb graphs pin the no-recursion
// guarantee, and the end-to-end section runs a deep graph through the
// whole `.sgr` pipeline.

#include <algorithm>
#include <cstdio>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bicomp/biconnected.h"
#include "bicomp/isp.h"
#include "bicomp_test_util.h"
#include "graph/binary_io.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "test_util.h"
#include "util/rng.h"

namespace saphyra {
namespace {

using testing::CanonicalReference;
using testing::Canonicalize;
using testing::MakeGraph;

// --- graph families ---------------------------------------------------------

Graph PathGraph(NodeId n) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1});
  return MakeGraph(n, edges);
}

Graph CycleGraph(NodeId n) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v < n; ++v) edges.push_back({v, (v + 1) % n});
  return MakeGraph(n, edges);
}

Graph StarGraph(NodeId leaves) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 1; v <= leaves; ++v) edges.push_back({0, v});
  return MakeGraph(leaves + 1, edges);
}

/// `k` cliques of `s` nodes chained so consecutive cliques share exactly
/// one vertex — every shared vertex is a cutpoint, every clique one
/// component.
Graph CliqueChain(NodeId k, NodeId s) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId c = 0; c < k; ++c) {
    NodeId base = c * (s - 1);
    for (NodeId i = 0; i < s; ++i) {
      for (NodeId j = i + 1; j < s; ++j) {
        edges.push_back({base + i, base + j});
      }
    }
  }
  return MakeGraph(k * (s - 1) + 1, edges);
}

/// Spine path with a pendant tooth on every spine node — the classic
/// deep-DFS shape with a bridge per edge.
Graph CombGraph(NodeId spine) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v + 1 < spine; ++v) edges.push_back({v, v + 1});
  for (NodeId v = 0; v < spine; ++v) edges.push_back({v, spine + v});
  return MakeGraph(2 * spine, edges);
}

/// Several Erdős–Rényi blocks on disjoint id ranges plus trailing isolated
/// nodes: multi-component graphs exercise the DFS restart at each root.
Graph DisconnectedBlocks(uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<NodeId, NodeId>> edges;
  NodeId base = 0;
  const uint32_t blocks = 2 + static_cast<uint32_t>(rng.UniformInt(3));
  for (uint32_t b = 0; b < blocks; ++b) {
    NodeId n = 3 + static_cast<NodeId>(rng.UniformInt(20));
    EdgeIndex m = n + static_cast<EdgeIndex>(rng.UniformInt(2 * n));
    for (EdgeIndex e = 0; e < m; ++e) {
      NodeId u = base + static_cast<NodeId>(rng.UniformInt(n));
      NodeId v = base + static_cast<NodeId>(rng.UniformInt(n));
      if (u != v) edges.push_back({u, v});
    }
    base += n;
  }
  return MakeGraph(base + 3, edges);  // 3 isolated nodes at the end
}

struct Case {
  std::string name;
  Graph graph;
};

std::vector<Case> GeneratorSweep() {
  std::vector<Case> cases;
  auto add = [&](std::string name, Graph g) {
    cases.push_back({std::move(name), std::move(g)});
  };
  char buf[96];
  // G(n, p) across densities, from forests to near-cliques.
  for (NodeId n : {8, 16, 32, 64}) {
    for (double density : {0.5, 1.0, 2.0, 4.0}) {
      for (uint64_t seed = 0; seed < 8; ++seed) {
        std::snprintf(buf, sizeof(buf), "er_n%u_d%.1f_s%llu", n, density,
                      static_cast<unsigned long long>(seed));
        const EdgeIndex max_edges =
            static_cast<EdgeIndex>(n) * (n - 1) / 2;
        add(buf, ErdosRenyi(n,
                            std::min(static_cast<EdgeIndex>(n * density),
                                     max_edges),
                            seed * 977 + 11));
      }
    }
  }
  // Trees: every edge a bridge.
  for (NodeId n : {2, 3, 10, 60, 300}) {
    for (uint64_t seed = 0; seed < 4; ++seed) {
      std::snprintf(buf, sizeof(buf), "tree_n%u_s%llu", n,
                    static_cast<unsigned long long>(seed));
      add(buf, RandomTree(n, seed * 313 + 7));
    }
  }
  // Cycles: one component, no cutpoints.
  for (NodeId n : {3, 4, 5, 10, 40, 150}) {
    std::snprintf(buf, sizeof(buf), "cycle_n%u", n);
    add(buf, CycleGraph(n));
  }
  // Cliques joined at cut vertices.
  for (auto [k, s] : std::vector<std::pair<NodeId, NodeId>>{
           {2, 3}, {3, 4}, {5, 3}, {4, 6}, {8, 4}, {2, 10}}) {
    std::snprintf(buf, sizeof(buf), "cliques_k%u_s%u", k, s);
    add(buf, CliqueChain(k, s));
  }
  // Stars: the center is the lone cutpoint.
  for (NodeId leaves : {3, 10, 60, 400}) {
    std::snprintf(buf, sizeof(buf), "star_%u", leaves);
    add(buf, StarGraph(leaves));
  }
  // Paths and combs (shallow versions of the deep stress shapes).
  for (NodeId n : {2, 17, 128}) {
    std::snprintf(buf, sizeof(buf), "path_n%u", n);
    add(buf, PathGraph(n));
  }
  add("comb_64", CombGraph(64));
  // Grids with deleted edges: bridge- and block-rich.
  for (auto [w, h, keep] : std::vector<std::tuple<NodeId, NodeId, double>>{
           {5, 4, 1.0}, {8, 6, 0.9}, {12, 9, 0.75}, {15, 12, 0.6}}) {
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      std::snprintf(buf, sizeof(buf), "grid_%ux%u_k%.2f_s%llu", w, h, keep,
                    static_cast<unsigned long long>(seed));
      add(buf, RoadGrid(w, h, keep, seed * 61).graph);
    }
  }
  // Disconnected multi-component graphs with isolated nodes.
  for (uint64_t seed = 0; seed < 10; ++seed) {
    std::snprintf(buf, sizeof(buf), "blocks_s%llu",
                  static_cast<unsigned long long>(seed));
    add(buf, DisconnectedBlocks(seed * 131 + 5));
  }
  // Hand-picked edge cases.
  add("empty", MakeGraph(0, {}));
  add("isolated_only", MakeGraph(4, {}));
  add("single_edge", MakeGraph(2, {{0, 1}}));
  add("triangle_plus_isolated", MakeGraph(5, {{0, 1}, {1, 2}, {2, 0}}));
  // Heavier-tailed families for good measure.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    std::snprintf(buf, sizeof(buf), "ba_s%llu",
                  static_cast<unsigned long long>(seed));
    add(buf, BarabasiAlbert(80, 2, seed * 17));
    std::snprintf(buf, sizeof(buf), "ws_s%llu",
                  static_cast<unsigned long long>(seed));
    add(buf, WattsStrogatz(60, 4, 0.2, seed * 29));
    std::snprintf(buf, sizeof(buf), "sbm_s%llu",
                  static_cast<unsigned long long>(seed));
    add(buf, StochasticBlockModel(60, 3, 0.25, 0.02, seed * 43));
  }
  // A few larger instances.
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    std::snprintf(buf, sizeof(buf), "ba400_s%llu",
                  static_cast<unsigned long long>(seed));
    add(buf, BarabasiAlbert(400, 3, seed * 101));
  }
  return cases;
}

TEST(BicompDifferential, MatchesReferenceOracleAcrossGeneratorSweep) {
  std::vector<Case> cases = GeneratorSweep();
  // The acceptance bar: at least 200 generated instances.
  ASSERT_GE(cases.size(), 200u);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const BiconnectedComponents bcc = ComputeBiconnectedComponents(c.graph);
    EXPECT_EQ(Canonicalize(c.graph, bcc), CanonicalReference(c.graph));
    // The canonicalization contract: ids ascend with each component's
    // smallest CSR arc index, so the labels are a pure function of the
    // graph.
    std::vector<EdgeIndex> min_arc(bcc.num_components, c.graph.num_arcs());
    for (EdgeIndex e = 0; e < c.graph.num_arcs(); ++e) {
      min_arc[bcc.arc_component[e]] =
          std::min(min_arc[bcc.arc_component[e]], e);
    }
    EXPECT_TRUE(std::is_sorted(min_arc.begin(), min_arc.end()));
  }
}

// --- deep-graph stress -------------------------------------------------------

// The DFS stack lives on the heap, so a DFS tree a million levels deep
// does not recurse.
TEST(BicompDifferential, MillionDeepPathRunsWithoutRecursion) {
  const NodeId n = 1000000;
  Graph g = PathGraph(n);
  BiconnectedComponents bcc = ComputeBiconnectedComponents(g);
  EXPECT_EQ(bcc.num_components, n - 1);  // every edge a bridge
  EXPECT_FALSE(bcc.is_cutpoint[0]);
  EXPECT_TRUE(bcc.is_cutpoint[1]);
  EXPECT_TRUE(bcc.is_cutpoint[n / 2]);
  EXPECT_FALSE(bcc.is_cutpoint[n - 1]);
}

TEST(BicompDifferential, MillionDeepCombRunsWithoutRecursion) {
  const NodeId spine = 1000000;
  Graph g = CombGraph(spine);  // DFS tree is >= 1M levels deep
  BiconnectedComponents bcc = ComputeBiconnectedComponents(g);
  EXPECT_EQ(bcc.num_components, g.num_edges());  // all bridges
  EXPECT_TRUE(bcc.is_cutpoint[spine / 2]);       // interior spine node
  EXPECT_FALSE(bcc.is_cutpoint[spine + 5]);      // a tooth tip
}

// --- end-to-end `.sgr` pipeline ---------------------------------------------

TEST(BicompDifferential, DeepGraphSurvivesTheFullSgrPipeline) {
  // End-to-end on a 100k-deep path: decomposition, block-cut tree, views,
  // serialization, reload. The 1M-scale binary smoke lives in CI where
  // graph_convert runs for real.
  Graph g = PathGraph(100000);
  IspIndex isp(g);
  EXPECT_EQ(isp.num_components(), g.num_edges());
  const std::string path = ::testing::TempDir() + "/bicomp_deep.sgr";
  SgrWriteOptions wopts;
  ASSERT_TRUE(WriteSgr(path, g, &isp.bcc(), &isp.conn(), &isp.views(),
                       &isp.tree(), wopts)
                  .ok());
  GraphCache cache;
  ASSERT_TRUE(LoadSgr(path, &cache).ok());
  EXPECT_TRUE(cache.has_decomposition);
  EXPECT_EQ(cache.bcc.num_components, isp.num_components());
  EXPECT_EQ(cache.bcc.arc_component, isp.bcc().arc_component);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace saphyra
