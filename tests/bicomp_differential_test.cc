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
#include <vector>

#include <gtest/gtest.h>

#include "bicomp/biconnected.h"
#include "bicomp/isp.h"
#include "bicomp_test_util.h"
#include "graph/binary_io.h"
#include "graph/graph.h"

namespace saphyra {
namespace {

using testing::CanonicalReference;
using testing::Canonicalize;
using testing::CombGraph;
using testing::GeneratorSweep;
using testing::PathGraph;

TEST(BicompDifferential, MatchesReferenceOracleAcrossGeneratorSweep) {
  std::vector<testing::GeneratorCase> cases = GeneratorSweep();
  // The acceptance bar: at least 200 generated instances.
  ASSERT_GE(cases.size(), 200u);
  for (const testing::GeneratorCase& c : cases) {
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
