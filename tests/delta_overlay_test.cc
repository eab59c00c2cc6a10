// DeltaOverlay unit tests: mutation validation (the INVALID_ARGUMENT
// taxonomy the serving tier surfaces), effective-view accessors, the
// materialize-equals-rebuild contract (a linear merge of base + deltas is
// bitwise the GraphBuilder CSR of the mutated edge list) and rebase
// semantics.

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/delta_overlay.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "test_util.h"
#include "util/rng.h"

namespace saphyra {
namespace {

using testing::MakeGraph;

void ExpectGraphBitwiseEqual(const Graph& a, const Graph& b,
                             const std::string& what) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes()) << what;
  ASSERT_EQ(a.max_degree(), b.max_degree()) << what;
  const auto ao = a.raw_offsets(), bo = b.raw_offsets();
  ASSERT_TRUE(std::equal(ao.begin(), ao.end(), bo.begin(), bo.end())) << what;
  const auto aa = a.raw_adj(), ba = b.raw_adj();
  ASSERT_TRUE(std::equal(aa.begin(), aa.end(), ba.begin(), ba.end())) << what;
}

TEST(DeltaOverlayTest, EmptyOverlayMatchesBase) {
  Graph base = MakeGraph(5, {{0, 1}, {1, 2}, {2, 3}, {0, 2}});
  DeltaOverlay overlay(&base);
  EXPECT_EQ(overlay.num_nodes(), 5u);
  EXPECT_EQ(overlay.num_edges(), 4u);
  EXPECT_EQ(overlay.delta_size(), 0u);
  EXPECT_TRUE(overlay.HasEdge(0, 2));
  EXPECT_FALSE(overlay.HasEdge(0, 3));
  for (NodeId v = 0; v < 5; ++v) {
    std::vector<NodeId> got;
    overlay.ForEachNeighbor(v, [&](NodeId w) { got.push_back(w); });
    const auto want = base.neighbors(v);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "node " << v;
  }
  ExpectGraphBitwiseEqual(overlay.Materialize(), base, "empty overlay");
}

TEST(DeltaOverlayTest, InsertAndRemoveValidation) {
  Graph base = MakeGraph(4, {{0, 1}, {1, 2}});
  DeltaOverlay overlay(&base);
  // Out-of-range endpoints.
  EXPECT_EQ(overlay.Insert(0, 4).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(overlay.Insert(9, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(overlay.Remove(0, 4).code(), StatusCode::kInvalidArgument);
  // Self loop.
  EXPECT_EQ(overlay.Insert(2, 2).code(), StatusCode::kInvalidArgument);
  // Duplicate of a live base edge (either direction).
  EXPECT_EQ(overlay.Insert(0, 1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(overlay.Insert(1, 0).code(), StatusCode::kInvalidArgument);
  // Delete of a non-existent edge.
  EXPECT_EQ(overlay.Remove(0, 3).code(), StatusCode::kInvalidArgument);
  // Valid insert; duplicate of the pending insert now rejected too.
  ASSERT_TRUE(overlay.Insert(0, 3).ok());
  EXPECT_EQ(overlay.Insert(3, 0).code(), StatusCode::kInvalidArgument);
  // Double delete: the second sees no edge.
  ASSERT_TRUE(overlay.Remove(1, 2).ok());
  EXPECT_EQ(overlay.Remove(1, 2).code(), StatusCode::kInvalidArgument);
  // Failed mutations left the state consistent.
  EXPECT_EQ(overlay.num_edges(), 2u);
  EXPECT_TRUE(overlay.HasEdge(0, 3));
  EXPECT_FALSE(overlay.HasEdge(1, 2));
}

TEST(DeltaOverlayTest, CancellingMutationsRestoreTheBase) {
  Graph base = MakeGraph(4, {{0, 1}, {1, 2}, {2, 3}});
  DeltaOverlay overlay(&base);
  // Delete a base edge, then re-insert it: tombstone cleared in place.
  ASSERT_TRUE(overlay.Remove(1, 2).ok());
  EXPECT_EQ(overlay.delta_size(), 1u);
  ASSERT_TRUE(overlay.Insert(2, 1).ok());
  EXPECT_EQ(overlay.delta_size(), 0u);
  // Insert a new edge, then delete it: pending insert cancelled.
  ASSERT_TRUE(overlay.Insert(0, 3).ok());
  ASSERT_TRUE(overlay.Remove(3, 0).ok());
  EXPECT_EQ(overlay.delta_size(), 0u);
  ExpectGraphBitwiseEqual(overlay.Materialize(), base, "cancelled deltas");
}

TEST(DeltaOverlayTest, NeighborIterationIsSortedMergeOrder) {
  Graph base = MakeGraph(8, {{3, 1}, {3, 5}, {3, 7}});
  DeltaOverlay overlay(&base);
  ASSERT_TRUE(overlay.Insert(3, 0).ok());
  ASSERT_TRUE(overlay.Insert(3, 6).ok());
  ASSERT_TRUE(overlay.Insert(3, 2).ok());
  ASSERT_TRUE(overlay.Remove(3, 5).ok());
  std::vector<NodeId> got;
  overlay.ForEachNeighbor(3, [&](NodeId v) { got.push_back(v); });
  EXPECT_EQ(got, (std::vector<NodeId>{0, 1, 2, 6, 7}));
}

TEST(DeltaOverlayTest, RebaseDropsDeltas) {
  Graph base = MakeGraph(4, {{0, 1}, {1, 2}});
  DeltaOverlay overlay(&base);
  ASSERT_TRUE(overlay.Insert(2, 3).ok());
  ASSERT_TRUE(overlay.Remove(0, 1).ok());
  Graph compacted = overlay.Materialize();
  overlay.Rebase(&compacted);
  EXPECT_EQ(overlay.delta_size(), 0u);
  EXPECT_EQ(overlay.num_edges(), compacted.num_edges());
  ExpectGraphBitwiseEqual(overlay.Materialize(), compacted, "post rebase");
  // The overlay keeps mutating against the new base.
  ASSERT_TRUE(overlay.Insert(0, 1).ok());
  EXPECT_EQ(overlay.delta_size(), 1u);
}

// The core contract: a random mutation stream applied through the
// overlay materializes to the exact CSR a from-scratch GraphBuilder
// produces for the mutated edge list — offsets, adjacency, max_degree.
TEST(DeltaOverlayTest, MaterializeMatchesRebuildUnderRandomStreams) {
  struct Case {
    const char* name;
    Graph graph;
  };
  std::vector<Case> cases;
  cases.push_back({"er", ErdosRenyi(120, 400, 7)});
  cases.push_back({"ba", BarabasiAlbert(100, 3, 11)});
  cases.push_back({"ws", WattsStrogatz(90, 6, 0.1, 13)});
  cases.push_back({"grid", RoadGrid(9, 9, 0.9, 17).graph});
  cases.push_back({"sbm", StochasticBlockModel(80, 4, 0.2, 0.01, 19)});
  for (auto& c : cases) {
    SCOPED_TRACE(c.name);
    const NodeId n = c.graph.num_nodes();
    std::set<std::pair<NodeId, NodeId>> edges;
    for (auto e : c.graph.UndirectedEdges()) edges.insert(e);
    DeltaOverlay overlay(&c.graph);
    Rng rng(100 + n);
    for (int step = 0; step < 200; ++step) {
      NodeId u = static_cast<NodeId>(rng.UniformInt(n));
      NodeId v = static_cast<NodeId>(rng.UniformInt(n));
      if (u == v) continue;
      if (u > v) std::swap(u, v);
      if (edges.count({u, v})) {
        ASSERT_TRUE(overlay.Remove(u, v).ok());
        edges.erase({u, v});
      } else {
        ASSERT_TRUE(overlay.Insert(u, v).ok());
        edges.insert({u, v});
      }
      ASSERT_EQ(overlay.num_edges(), edges.size());
    }
    GraphBuilder builder;
    for (auto [u, v] : edges) builder.AddEdge(u, v);
    Graph rebuilt;
    ASSERT_TRUE(builder.Build(n, &rebuilt).ok());
    ExpectGraphBitwiseEqual(overlay.Materialize(), rebuilt, c.name);
  }
}

}  // namespace
}  // namespace saphyra
