#ifndef SAPHYRA_TESTS_BICOMP_TEST_UTIL_H_
#define SAPHYRA_TESTS_BICOMP_TEST_UTIL_H_

// Shared canonicalizer for biconnected decompositions, used by
// biconnected_test.cc and bicomp_differential_test.cc to check the
// decomposition against the independent recursive ReferenceBcc, and the
// bitwise comparisons of decompositions and ISP indexes the incremental
// and serving tests pin against fresh builds.

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bicomp/biconnected.h"
#include "bicomp/isp.h"
#include "graph/graph.h"
#include "test_util.h"
#include "util/logging.h"

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
  EXPECT_EQ(a.rev_arc, b.rev_arc) << what;
  EXPECT_EQ(a.cutpoint_comp_count_, b.cutpoint_comp_count_) << what;
}

/// Every field of `got` equals a fresh index of the same CSR, `got`'s views
/// list each block's members as its decomposition does (so a member index
/// is a local id, which restricted draws rely on), and a fixed Rng draws
/// the same component/source/target sequence from both.
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
  if (want_space.eta() == 0.0) return;
  Rng got_rng(97);
  Rng want_rng(97);
  for (int i = 0; i < 64; ++i) {
    const uint32_t c = got_space.SampleComponent(&got_rng);
    ASSERT_EQ(c, want_space.SampleComponent(&want_rng)) << what;
    const NodeId s = got.SampleSource(c, &got_rng);
    ASSERT_EQ(s, want.SampleSource(c, &want_rng)) << what;
    ASSERT_EQ(got.SampleTarget(c, s, &got_rng),
              want.SampleTarget(c, s, &want_rng))
        << what;
  }
}

}  // namespace testing
}  // namespace saphyra

#endif  // SAPHYRA_TESTS_BICOMP_TEST_UTIL_H_
