#ifndef SAPHYRA_TESTS_BICOMP_TEST_UTIL_H_
#define SAPHYRA_TESTS_BICOMP_TEST_UTIL_H_

// Shared canonicalizer for biconnected decompositions, used by
// biconnected_test.cc and bicomp_differential_test.cc to check the
// decomposition against the independent recursive ReferenceBcc, and the
// bitwise comparisons of decompositions and ISP indexes the incremental
// and serving tests pin against fresh builds, and the generator sweep of
// graph shapes the differential oracles run over.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bicomp/biconnected.h"
#include "bicomp/isp.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "test_util.h"
#include "util/logging.h"
#include "util/rng.h"

namespace saphyra {
namespace testing {

/// Algorithm-independent view of a decomposition: the articulation-point
/// set plus the edge partition with every incidental ordering removed.
/// Two decompositions of the same graph are equivalent iff their canonical
/// forms compare equal, whatever labeling scheme produced them.
struct CanonicalBcc {
  using Edge = std::pair<NodeId, NodeId>;  // u < v

  std::vector<NodeId> cutpoints;                // sorted
  std::vector<std::vector<Edge>> components;    // sorted edges, sorted lists

  bool operator==(const CanonicalBcc&) const = default;
};

inline CanonicalBcc Canonicalize(const Graph& g,
                                 const BiconnectedComponents& bcc) {
  CanonicalBcc out;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (bcc.is_cutpoint[v]) out.cutpoints.push_back(v);
  }
  std::vector<std::vector<CanonicalBcc::Edge>> by_label(bcc.num_components);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EdgeIndex base = g.offset(u);
    auto nbr = g.neighbors(u);
    for (size_t i = 0; i < nbr.size(); ++i) {
      NodeId v = nbr[i];
      if (v < u) continue;  // one direction per undirected edge
      uint32_t c = bcc.arc_component[base + i];
      SAPHYRA_CHECK(c < bcc.num_components);
      by_label[c].push_back({u, v});
    }
  }
  for (auto& edges : by_label) {
    SAPHYRA_CHECK(!edges.empty());  // every component owns at least one edge
    std::sort(edges.begin(), edges.end());
  }
  std::sort(by_label.begin(), by_label.end());
  out.components = std::move(by_label);
  return out;
}

/// The canonical form of ReferenceBcc's textbook recursive Tarjan pass —
/// the independent oracle the decomposition is checked against. Its
/// recursion is as deep as the DFS tree: graphs of a few hundred nodes
/// only.
inline CanonicalBcc CanonicalReference(const Graph& g) {
  const ReferenceBcc ref(g);
  CanonicalBcc out;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (ref.is_cutpoint(v)) out.cutpoints.push_back(v);
  }
  out.components.resize(ref.num_groups());
  // edge_group() iterates edges in sorted order, so each list is sorted.
  for (const auto& [edge, group] : ref.edge_group()) {
    out.components[group].push_back(edge);
  }
  std::sort(out.components.begin(), out.components.end());
  return out;
}

/// Every field equal — the bitwise contract behind `.sgr` invariance, not
/// just equivalence up to relabeling.
inline void ExpectBccBitwiseEqual(const BiconnectedComponents& a,
                                  const BiconnectedComponents& b,
                                  const std::string& what) {
  EXPECT_EQ(a.num_components, b.num_components) << what;
  EXPECT_EQ(a.arc_component, b.arc_component) << what;
  EXPECT_EQ(a.is_cutpoint, b.is_cutpoint) << what;
  EXPECT_EQ(a.component_nodes, b.component_nodes) << what;
  EXPECT_EQ(a.node_component, b.node_component) << what;
  EXPECT_EQ(a.cutpoint_comp_count_, b.cutpoint_comp_count_) << what;
}

/// Every field of `got` equals a fresh index of the same CSR, `got`'s views
/// list each block's members as its decomposition does (so a member index
/// is a local id, which restricted draws rely on), and a fixed Rng draws
/// the same component/source/target sequence from both — through a
/// personalization, and then from every block with W_i > 0, so every
/// alias slice an index carried over is compared.
inline void ExpectSameIndex(const IspIndex& got, const IspIndex& want,
                     const std::string& what) {
  ExpectBccBitwiseEqual(got.bcc(), want.bcc(), what);
  EXPECT_EQ(got.conn().component, want.conn().component) << what;
  EXPECT_EQ(got.conn().size, want.conn().size) << what;
  EXPECT_TRUE(std::ranges::equal(got.views().raw_node_begin(),
                                 want.views().raw_node_begin()))
      << what;
  EXPECT_TRUE(
      std::ranges::equal(got.views().raw_nodes(), want.views().raw_nodes()))
      << what;
  EXPECT_TRUE(std::ranges::equal(got.views().raw_offsets(),
                                 want.views().raw_offsets()))
      << what;
  EXPECT_TRUE(
      std::ranges::equal(got.views().raw_adj(), want.views().raw_adj()))
      << what;
  EXPECT_EQ(got.views().max_component_size(),
            want.views().max_component_size())
      << what;
  ASSERT_EQ(got.views().num_components(), got.num_components()) << what;
  for (uint32_t c = 0; c < got.num_components(); ++c) {
    EXPECT_TRUE(std::ranges::equal(got.views().nodes(c),
                                   got.bcc().component_nodes[c]))
        << what << " members of block " << c;
  }
  EXPECT_TRUE(std::ranges::equal(got.tree().reach(), want.tree().reach()))
      << what;
  for (uint32_t c = 0; c < want.num_components(); ++c) {
    for (NodeId v : want.bcc().component_nodes[c]) {
      ASSERT_EQ(got.OutReach(c, v), want.OutReach(c, v))
          << what << " r_" << c << "(" << v << ")";
    }
  }
  EXPECT_EQ(got.tree().conn_size_of_comp_table(),
            want.tree().conn_size_of_comp_table())
      << what;
  EXPECT_EQ(got.gamma(), want.gamma()) << what;
  EXPECT_EQ(got.total_weight(), want.total_weight()) << what;
  for (uint32_t c = 0; c < want.num_components(); ++c) {
    EXPECT_EQ(got.comp_weight(c), want.comp_weight(c)) << what << " W_" << c;
  }
  const NodeId n = want.graph().num_nodes();
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(got.bca(v), want.bca(v)) << what << " bc_a(" << v << ")";
  }
  std::vector<NodeId> targets;
  for (NodeId v = 0; v < std::min<NodeId>(n, 24); ++v) targets.push_back(v);
  const PersonalizedSpace got_space(got, targets);
  const PersonalizedSpace want_space(want, targets);
  ASSERT_EQ(got_space.eta(), want_space.eta()) << what;
  Rng got_rng(97);
  Rng want_rng(97);
  auto draw_pair = [&](uint32_t c) {
    const NodeId s = got.SampleSource(c, &got_rng);
    ASSERT_EQ(s, want.SampleSource(c, &want_rng)) << what << " block " << c;
    ASSERT_EQ(got.SampleTarget(c, s, &got_rng),
              want.SampleTarget(c, s, &want_rng))
        << what << " block " << c;
  };
  if (want_space.eta() > 0.0) {
    for (int i = 0; i < 64; ++i) {
      const uint32_t c = got_space.SampleComponent(&got_rng);
      ASSERT_EQ(c, want_space.SampleComponent(&want_rng)) << what;
      draw_pair(c);
    }
  }
  for (uint32_t c = 0; c < want.num_components(); ++c) {
    if (want.comp_weight(c) <= 0.0) continue;
    for (int i = 0; i < 3; ++i) draw_pair(c);
  }
}

// --- generator sweep --------------------------------------------------------
//
// The graph families behind bicomp_differential_test.cc's oracle sweep,
// shared with the tests that replay other kernels over the same shapes.

inline Graph PathGraph(NodeId n) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1});
  return MakeGraph(n, edges);
}

inline Graph CycleGraph(NodeId n) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v < n; ++v) edges.push_back({v, (v + 1) % n});
  return MakeGraph(n, edges);
}

inline Graph StarGraph(NodeId leaves) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 1; v <= leaves; ++v) edges.push_back({0, v});
  return MakeGraph(leaves + 1, edges);
}

/// `k` cliques of `s` nodes chained so consecutive cliques share exactly
/// one vertex — every shared vertex is a cutpoint, every clique one
/// component.
inline Graph CliqueChain(NodeId k, NodeId s) {
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
inline Graph CombGraph(NodeId spine) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v + 1 < spine; ++v) edges.push_back({v, v + 1});
  for (NodeId v = 0; v < spine; ++v) edges.push_back({v, spine + v});
  return MakeGraph(2 * spine, edges);
}

/// Several Erdős–Rényi blocks on disjoint id ranges plus trailing isolated
/// nodes: multi-component graphs exercise the DFS restart at each root.
inline Graph DisconnectedBlocks(uint64_t seed) {
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

struct GeneratorCase {
  std::string name;
  Graph graph;
};

inline std::vector<GeneratorCase> GeneratorSweep() {
  std::vector<GeneratorCase> cases;
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

}  // namespace testing
}  // namespace saphyra

#endif  // SAPHYRA_TESTS_BICOMP_TEST_UTIL_H_
