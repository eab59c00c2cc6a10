#ifndef SAPHYRA_TESTS_BICOMP_TEST_UTIL_H_
#define SAPHYRA_TESTS_BICOMP_TEST_UTIL_H_

// Shared canonicalizer for biconnected decompositions, used by
// biconnected_test.cc and bicomp_differential_test.cc to run the serial,
// bounded, and parallel passes over one table of expectations, and the
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

/// The three production variants of the decomposition. The bounded variant
/// runs with an effectively-unlimited cap; its depth-guard behavior has its
/// own tests.
enum class BccVariant { kSerial, kBounded, kParallel2, kParallel8 };

inline const char* BccVariantName(BccVariant v) {
  switch (v) {
    case BccVariant::kSerial: return "serial";
    case BccVariant::kBounded: return "bounded";
    case BccVariant::kParallel2: return "parallel2";
    case BccVariant::kParallel8: return "parallel8";
  }
  return "?";
}

inline BiconnectedComponents ComputeBccVariant(const Graph& g, BccVariant v) {
  switch (v) {
    case BccVariant::kSerial:
      return ComputeBiconnectedComponents(g);
    case BccVariant::kBounded: {
      BiconnectedComponents out;
      Status st = ComputeBiconnectedComponentsBounded(g, 0, &out);
      SAPHYRA_CHECK_MSG(st.ok(), st.ToString().c_str());
      return out;
    }
    case BccVariant::kParallel2:
      return ComputeBiconnectedComponentsParallel(g, 2);
    case BccVariant::kParallel8:
      return ComputeBiconnectedComponentsParallel(g, 8);
  }
  SAPHYRA_CHECK(false);
  return {};
}

inline const std::vector<BccVariant>& AllBccVariants() {
  static const std::vector<BccVariant> kAll = {
      BccVariant::kSerial, BccVariant::kBounded, BccVariant::kParallel2,
      BccVariant::kParallel8};
  return kAll;
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

/// Every field of `got` equals a fresh index of the same CSR, and a fixed
/// Rng draws the same component/source/target sequence from both.
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
