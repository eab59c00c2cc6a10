// Incremental bicomp repair: every mutation's repaired decomposition must
// be BITWISE identical to a from-scratch pass on the mutated graph, and the
// index derived through the repair's block remap must equal a fresh one.
// Directed cases pin each routing branch — same-block insert, path-merge
// insert across cutpoints, bridge insert across components, isolated
// endpoints, block-splitting delete, bridge delete — and random mutation
// streams over the generator sweep chain repairs for hundreds of steps.
// Property sweeps pin that the remap carries every block under its own id
// exactly when the oracle's member lists do not change, and the merge
// cases pin the shape of the remap across a merge. SpliceEdge, which
// builds each mutated CSR, is pinned against GraphBuilder and on its
// rejection messages.

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bicomp/biconnected.h"
#include "bicomp/incremental.h"
#include "bicomp/isp.h"
#include "bicomp_test_util.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "test_util.h"
#include "util/rng.h"

namespace saphyra {
namespace {

using testing::ExpectBccBitwiseEqual;
using testing::MakeGraph;
using testing::PaperFig2Graph;

/// Apply one mutation to `g` (whose decomposition is `bcc`) through
/// SpliceEdge and return the repaired decomposition alongside the mutated
/// graph, asserting bitwise equality with the serial oracle, that every
/// block the remap carries kept its parent block's member list, and that
/// the index derived through the remap equals a fresh index.
struct Applied {
  Graph graph;
  BiconnectedComponents bcc;
};

Applied ApplyAndCheck(const Graph& g, const BiconnectedComponents& bcc,
                      EdgeMutationKind kind, NodeId u, NodeId v,
                      const std::string& what,
                      IncrementalBicompStats* stats = nullptr) {
  IncrementalBicompStats local;
  if (stats == nullptr) stats = &local;
  Applied out;
  EXPECT_TRUE(SpliceEdge(g, {kind, u, v}, &out.graph).ok()) << what;
  const IspIndex parent(g);
  ExpectBccBitwiseEqual(bcc, parent.bcc(), what + " (input)");
  out.bcc = RepairBiconnectedComponents(g, bcc, parent.views(), out.graph,
                                        {kind, u, v}, stats);
  ExpectBccBitwiseEqual(out.bcc, ComputeBiconnectedComponents(out.graph),
                        what);
  const BlockRemap& remap = stats->remap;
  EXPECT_EQ(remap.from.size(), out.bcc.num_components) << what;
  for (uint32_t c = 0; c < remap.from.size(); ++c) {
    if (remap.from[c] == kInvalidComp) continue;
    EXPECT_TRUE(std::ranges::equal(out.bcc.component_nodes[c],
                                   bcc.component_nodes[remap.from[c]]))
        << what << " carried block " << c;
  }
  const IspIndex derived(out.graph, parent, out.bcc, remap);
  testing::ExpectSameIndex(derived, IspIndex(out.graph), what);
  return out;
}

/// The blocks a remap does not carry (new member lists), ascending.
std::vector<uint32_t> NewBlocks(const BlockRemap& remap) {
  std::vector<uint32_t> out;
  for (uint32_t c = 0; c < remap.from.size(); ++c) {
    if (remap.from[c] == kInvalidComp) out.push_back(c);
  }
  return out;
}

/// Whether the remap carries every block of a `num_old`-block parent
/// under its own id: the partition stood.
bool KeepsPartition(const BlockRemap& remap, uint32_t num_old) {
  if (remap.from.size() != num_old) return false;
  for (uint32_t c = 0; c < num_old; ++c) {
    if (remap.from[c] != c) return false;
  }
  return true;
}

TEST(IncrementalBicompTest, DirectedCasesOnThePaperGraph) {
  // Fig. 2: pentagon {a,b,c,d,e}, triangles {c,g,h} and {i,j,k}, bridges
  // d-f and d-i; cutpoints c, d, i.
  Graph g = PaperFig2Graph();
  BiconnectedComponents bcc = ComputeBiconnectedComponents(g);
  IncrementalBicompStats stats;

  // Insert inside one block: pentagon chord a-d. The partition stands and
  // the pentagon is the edge block.
  ApplyAndCheck(g, bcc, EdgeMutationKind::kInsert, 0, 3, "chord a-d", &stats);
  EXPECT_TRUE(KeepsPartition(stats.remap, bcc.num_components));
  EXPECT_EQ(stats.remap.edge_block, bcc.node_component[0]);
  EXPECT_FALSE(stats.remap.conn_changed);

  // Path-merge insert: e(4) to g(6) runs pentagon -> c -> triangle; the
  // two blocks on the block-cut-tree path merge with the new edge.
  Applied merged = ApplyAndCheck(g, bcc, EdgeMutationKind::kInsert, 4, 6,
                                 "merge e-g", &stats);
  EXPECT_EQ(merged.bcc.num_components, bcc.num_components - 1);
  EXPECT_EQ(NewBlocks(stats.remap).size(), 1u);
  EXPECT_EQ(stats.remap.edge_block, kInvalidComp);

  // Long path merge: f(5) to k(10) crosses bridge d-f, bridge d-i and the
  // i-triangle — three blocks collapse into one.
  Applied long_merge = ApplyAndCheck(g, bcc, EdgeMutationKind::kInsert, 5,
                                     10, "merge f-k", &stats);
  EXPECT_EQ(long_merge.bcc.num_components, bcc.num_components - 2);
  EXPECT_EQ(NewBlocks(stats.remap).size(), 1u);

  // Block-splitting delete: removing pentagon edge a-b leaves a path
  // a-c-d-e... the pentagon splits into four bridge blocks, all new.
  Applied split = ApplyAndCheck(g, bcc, EdgeMutationKind::kDelete, 0, 1,
                                "split pentagon", &stats);
  EXPECT_EQ(split.bcc.num_components, bcc.num_components + 3);
  EXPECT_EQ(NewBlocks(stats.remap).size(), 4u);
  EXPECT_EQ(stats.dirty_arcs, 8u);
  EXPECT_FALSE(stats.remap.conn_changed);

  // Bridge delete: d-f detaches leaf f; the block vanishes, nothing is
  // recomputed, and the connected component splits.
  Applied detached = ApplyAndCheck(g, bcc, EdgeMutationKind::kDelete, 3, 5,
                                   "drop bridge d-f", &stats);
  EXPECT_EQ(stats.dirty_arcs, 0u);
  EXPECT_EQ(detached.bcc.num_components, bcc.num_components - 1);
  EXPECT_TRUE(NewBlocks(stats.remap).empty());
  EXPECT_TRUE(stats.remap.conn_changed);

  // Bridge insert across components: detach f, then reconnect it
  // elsewhere — the repair sees two components and adds one bridge block.
  Applied rejoined =
      ApplyAndCheck(detached.graph, detached.bcc, EdgeMutationKind::kInsert,
                    5, 9, "reconnect f-j", &stats);
  EXPECT_EQ(rejoined.bcc.num_components, detached.bcc.num_components + 1);
  EXPECT_EQ(NewBlocks(stats.remap).size(), 1u);
  EXPECT_TRUE(stats.remap.conn_changed);
}

TEST(IncrementalBicompTest, IsolatedEndpointsAndTinyGraphs) {
  // Two isolated nodes joined: first edge of the graph.
  Graph empty = MakeGraph(4, {});
  BiconnectedComponents bcc = ComputeBiconnectedComponents(empty);
  Applied first = ApplyAndCheck(empty, bcc, EdgeMutationKind::kInsert, 1, 3,
                                "first edge");
  EXPECT_EQ(first.bcc.num_components, 1u);

  // Isolated node attached to an existing block.
  Applied second = ApplyAndCheck(first.graph, first.bcc,
                                 EdgeMutationKind::kInsert, 0, 1,
                                 "attach isolated");
  // Deleting the last edge of a 2-node component isolates both ends.
  Applied gone = ApplyAndCheck(second.graph, second.bcc,
                               EdgeMutationKind::kDelete, 1, 3,
                               "drop isolated edge");
  EXPECT_EQ(gone.bcc.node_component[3], kInvalidComp);

  // Triangle closure over a path: 0-1-2 plus 0-2.
  Graph path = MakeGraph(3, {{0, 1}, {1, 2}});
  BiconnectedComponents path_bcc = ComputeBiconnectedComponents(path);
  Applied tri = ApplyAndCheck(path, path_bcc, EdgeMutationKind::kInsert, 0, 2,
                              "close triangle");
  EXPECT_EQ(tri.bcc.num_components, 1u);
  EXPECT_EQ(tri.bcc.is_cutpoint[1], 0);
}

// Every block-splitting delete of a block with three or more nodes
// relabels exactly that block's surviving arcs: the other blocks carry
// over and the pieces are new.
TEST(IncrementalBicompTest, SplitRelabelsOnlyTheSplitBlock) {
  int splits = 0;
  for (const Graph& g :
       {WattsStrogatz(60, 4, 0.1, 31), ErdosRenyi(70, 100, 37)}) {
    const BiconnectedComponents bcc = ComputeBiconnectedComponents(g);
    for (NodeId x = 0; x < g.num_nodes(); ++x) {
      const auto nbr = g.neighbors(x);
      for (size_t i = 0; i < nbr.size(); ++i) {
        const NodeId y = nbr[i];
        const uint32_t c = bcc.arc_component[g.offset(x) + i];
        if (y < x || bcc.component_nodes[c].size() < 3) continue;
        IncrementalBicompStats stats;
        const std::string what =
            "delete " + std::to_string(x) + "-" + std::to_string(y);
        Applied next = ApplyAndCheck(g, bcc, EdgeMutationKind::kDelete, x, y,
                                     what, &stats);
        if (next.bcc.num_components == bcc.num_components) continue;
        ++splits;
        const size_t pieces = NewBlocks(stats.remap).size();
        EXPECT_EQ(next.bcc.num_components + 1, bcc.num_components + pieces)
            << what;
        uint64_t block_arcs = 0;
        for (uint32_t e : bcc.arc_component) block_arcs += e == c ? 1 : 0;
        EXPECT_EQ(stats.dirty_arcs, block_arcs - 2) << what;
        EXPECT_EQ(stats.remap.edge_block, kInvalidComp) << what;
      }
    }
  }
  EXPECT_GT(splits, 5);
}

// Inserts are a closed-form relabel: even when the merged region is most
// of the graph (a leaf joined to the core, which merges its bridge block
// into the giant one), one new block replaces the path, and an edge
// inside the giant block keeps the partition.
TEST(IncrementalBicompTest, InsertsIntoTheGiantBlockKeepOrMerge) {
  const NodeId core = 1400;
  Graph cur = testing::BaCoreWithLeaves(core, 600, 61);
  BiconnectedComponents bcc = ComputeBiconnectedComponents(cur);
  uint32_t giant = 0;
  for (uint32_t c = 1; c < bcc.num_components; ++c) {
    if (bcc.component_nodes[c].size() > bcc.component_nodes[giant].size()) {
      giant = c;
    }
  }
  const std::vector<NodeId> members(bcc.component_nodes[giant].begin(),
                                    bcc.component_nodes[giant].end());
  Rng rng(67);
  int inside = 0;
  int merges = 0;
  for (int step = 0; step < 40; ++step) {
    // Even steps: two giant-block members; odd steps: a leaf (degree 1,
    // id >= core) and a giant-block member.
    const bool merge = step % 2 == 1;
    NodeId u = merge ? core + static_cast<NodeId>(rng.UniformInt(600))
                     : members[rng.UniformInt(members.size())];
    NodeId v = members[rng.UniformInt(members.size())];
    if (u == v || cur.HasEdge(u, v) || (merge && cur.degree(u) != 1)) {
      continue;
    }
    IncrementalBicompStats stats;
    Applied next = ApplyAndCheck(cur, bcc, EdgeMutationKind::kInsert, u, v,
                                 "step " + std::to_string(step), &stats);
    if (merge) {
      EXPECT_GT(static_cast<double>(stats.dirty_arcs),
                0.25 * static_cast<double>(next.graph.num_arcs()))
          << "step " << step;
      EXPECT_EQ(NewBlocks(stats.remap).size(), 1u) << "step " << step;
      EXPECT_EQ(next.bcc.num_components + 1, bcc.num_components)
          << "step " << step;
    } else {
      // Inside the giant block the partition stands: nothing relabeled.
      EXPECT_TRUE(KeepsPartition(stats.remap, bcc.num_components))
          << "step " << step;
      EXPECT_EQ(stats.dirty_arcs, 0u) << "step " << step;
    }
    ++(merge ? merges : inside);
    cur = std::move(next.graph);
    bcc = std::move(next.bcc);
  }
  EXPECT_GE(inside, 10);
  EXPECT_GE(merges, 10);
}

/// The generator graphs of the routing property tests.
std::vector<std::pair<std::string, Graph>> RoutingGraphs() {
  std::vector<std::pair<std::string, Graph>> out;
  out.emplace_back("er", ErdosRenyi(70, 140, 41));
  out.emplace_back("ba", BarabasiAlbert(60, 2, 43));
  out.emplace_back("ws", WattsStrogatz(60, 4, 0.2, 47));
  out.emplace_back("grid", RoadGrid(8, 8, 0.85, 53).graph);
  out.emplace_back("sbm", StochasticBlockModel(60, 3, 0.15, 0.01, 59));
  out.emplace_back("core", testing::BaCoreWithLeaves(150, 60, 71));
  return out;
}

/// Applies `kind` {u,v} to `base` and checks the routing: the remap
/// carries every block under its own id exactly when the oracle's member
/// lists did not change, and then nothing was relabeled. Returns whether
/// the partition stood.
bool CheckRouting(const Graph& base, const BiconnectedComponents& bcc,
                  EdgeMutationKind kind, NodeId u, NodeId v,
                  const std::string& what) {
  IncrementalBicompStats stats;
  Applied next = ApplyAndCheck(base, bcc, kind, u, v, what, &stats);
  const bool unchanged =
      ComputeBiconnectedComponents(next.graph).component_nodes ==
      bcc.component_nodes;
  const bool kept = KeepsPartition(stats.remap, bcc.num_components);
  EXPECT_EQ(kept, unchanged) << what;
  if (kept) {
    EXPECT_EQ(stats.dirty_arcs, 0u) << what;
    EXPECT_NE(stats.remap.edge_block, kInvalidComp) << what;
  }
  return kept;
}

// Delete routing is exact: every edge of every block with three or more
// nodes, deleted one at a time from the same base, keeps the partition
// exactly when the block survives whole.
TEST(IncrementalBicompTest, DeleteKeepsThePartitionExactlyWhenTheOracleDoes) {
  int kept = 0;
  int split = 0;
  for (const auto& [name, g] : RoutingGraphs()) {
    const BiconnectedComponents bcc = ComputeBiconnectedComponents(g);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      const auto nbr = g.neighbors(u);
      for (size_t i = 0; i < nbr.size(); ++i) {
        const uint32_t c = bcc.arc_component[g.offset(u) + i];
        if (nbr[i] < u || bcc.component_nodes[c].size() < 3) continue;
        const bool k =
            CheckRouting(g, bcc, EdgeMutationKind::kDelete, u, nbr[i],
                         name + " delete " + std::to_string(u) + "-" +
                             std::to_string(nbr[i]));
        ++(k ? kept : split);
      }
    }
  }
  EXPECT_GT(kept, 100);
  EXPECT_GT(split, 10);
}

// Every insert whose endpoints already share a block keeps the partition
// unless its new arc reorders the canonical ids (see the constructed case
// below).
TEST(IncrementalBicompTest, InBlockInsertsKeepThePartition) {
  const Graph g = StochasticBlockModel(60, 3, 0.15, 0.01, 59);
  const BiconnectedComponents bcc = ComputeBiconnectedComponents(g);
  std::vector<std::vector<uint32_t>> comps_of(g.num_nodes());
  for (uint32_t c = 0; c < bcc.num_components; ++c) {
    for (NodeId x : bcc.component_nodes[c]) comps_of[x].push_back(c);
  }
  int inserts = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = u + 1; v < g.num_nodes(); ++v) {
      const auto& cu = comps_of[u];
      const auto& cv = comps_of[v];
      const bool shared = std::find_first_of(cu.begin(), cu.end(), cv.begin(),
                                             cv.end()) != cu.end();
      if (!shared || g.HasEdge(u, v)) continue;
      CheckRouting(g, bcc, EdgeMutationKind::kInsert, u, v,
                   "insert " + std::to_string(u) + "-" + std::to_string(v));
      ++inserts;
    }
  }
  EXPECT_GT(inserts, 100);
}

// Node 0 is the smallest member of both its blocks: the bridge {0,2} and
// the cycle 0-3-1-4-0, whose ids are ordered by 0's arcs to 2 and to 3.
// Inserting the chord 0-1 inside the cycle puts the cycle's new smallest
// arc ahead of the bridge's: the partition stands but the canonical ids
// swap, so the update must take the relabeling route.
TEST(IncrementalBicompTest, InBlockInsertThatReordersIdsIsRelabeled) {
  const Graph g = MakeGraph(5, {{0, 2}, {0, 3}, {3, 1}, {1, 4}, {4, 0}});
  const BiconnectedComponents bcc = ComputeBiconnectedComponents(g);
  IncrementalBicompStats stats;
  Applied next =
      ApplyAndCheck(g, bcc, EdgeMutationKind::kInsert, 0, 1, "chord 0-1",
                    &stats);
  EXPECT_FALSE(KeepsPartition(stats.remap, bcc.num_components));
  EXPECT_EQ(NewBlocks(stats.remap), std::vector<uint32_t>{0});
  EXPECT_EQ(stats.remap.from[1], 0u);
  EXPECT_GT(stats.dirty_arcs, 0u);
  EXPECT_EQ(next.bcc.num_components, bcc.num_components);
  EXPECT_NE(next.bcc.arc_component[next.graph.offset(0) + 1],
            bcc.arc_component[g.offset(0)]);
}

// The same swap from the delete side: removing the chord 0-1 again leaves
// the cycle whole, but its smallest arc falls back behind the bridge's.
// The block carries over under its moved id with the chord spliced out.
TEST(IncrementalBicompTest, DeleteThatReordersIdsCarriesTheBlock) {
  const Graph g =
      MakeGraph(5, {{0, 1}, {0, 2}, {0, 3}, {3, 1}, {1, 4}, {4, 0}});
  const BiconnectedComponents bcc = ComputeBiconnectedComponents(g);
  IncrementalBicompStats stats;
  ApplyAndCheck(g, bcc, EdgeMutationKind::kDelete, 0, 1, "drop chord 0-1",
                &stats);
  EXPECT_FALSE(KeepsPartition(stats.remap, bcc.num_components));
  EXPECT_TRUE(NewBlocks(stats.remap).empty());
  EXPECT_EQ(stats.remap.edge_block, 1u);
  EXPECT_EQ(stats.remap.from[1], 0u);
  EXPECT_EQ(stats.dirty_arcs, 0u);
}

/// Inserts {u,v} into `g`, which must merge blocks, and checks the merge
/// route end to end (ApplyAndCheck) plus its remap: one new block, every
/// other one carried, and the derived index shares the parent's
/// connectivity. Returns the merged block's id.
uint32_t MergeAndCheck(const Graph& g, NodeId u, NodeId v,
                       const std::string& what, Graph* next = nullptr) {
  const BiconnectedComponents bcc = ComputeBiconnectedComponents(g);
  IncrementalBicompStats stats;
  Applied merged =
      ApplyAndCheck(g, bcc, EdgeMutationKind::kInsert, u, v, what, &stats);
  const std::vector<uint32_t> fresh = NewBlocks(stats.remap);
  EXPECT_EQ(fresh.size(), 1u) << what;
  EXPECT_FALSE(stats.remap.conn_changed) << what;
  const IspIndex parent(g);
  const IspIndex derived(merged.graph, parent, merged.bcc, stats.remap);
  EXPECT_EQ(&derived.conn(), &parent.conn()) << what;
  if (next != nullptr) *next = std::move(merged.graph);
  return fresh.empty() ? kInvalidComp : fresh[0];
}

// The core K4 {0,1,2,3} with leaves 4 and 5 on node 0 and leaf 6 on node
// 1: the merge route's shapes on a leaf-heavy graph.
Graph CoreWithLeaves() {
  return MakeGraph(7, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
                       {0, 4}, {0, 5}, {1, 6}});
}

TEST(IncrementalBicompTest, MergeLeafIntoCore) {
  Graph next;
  MergeAndCheck(CoreWithLeaves(), 4, 2, "leaf 4 to core", &next);
  const BiconnectedComponents bcc = ComputeBiconnectedComponents(next);
  // The core and the bridge 0-4 merged; node 0 keeps leaf 5, so it stays
  // a cutpoint.
  EXPECT_EQ(bcc.num_components, 3u);
  EXPECT_EQ(bcc.is_cutpoint[0], 1);
}

TEST(IncrementalBicompTest, MergeLeafToLeafThroughTheCore) {
  Graph next;
  MergeAndCheck(CoreWithLeaves(), 4, 6, "leaf 4 to leaf 6", &next);
  // Three blocks merged. Node 1 loses its only other block; node 0 keeps
  // leaf 5.
  const BiconnectedComponents bcc = ComputeBiconnectedComponents(next);
  EXPECT_EQ(bcc.num_components, 2u);
  EXPECT_EQ(bcc.is_cutpoint[0], 1);
  EXPECT_EQ(bcc.is_cutpoint[1], 0);
}

TEST(IncrementalBicompTest, MergeTwoLeavesOfOneHubIntoATriangle) {
  Graph next;
  const uint32_t merged =
      MergeAndCheck(CoreWithLeaves(), 4, 5, "leaves 4-5", &next);
  const BiconnectedComponents bcc = ComputeBiconnectedComponents(next);
  ASSERT_NE(merged, kInvalidComp);
  EXPECT_EQ(bcc.component_nodes[merged].size(), 3u);
  EXPECT_EQ(bcc.is_cutpoint[0], 1);
}

// A path cutpoint whose only two blocks merge stops being a cutpoint.
TEST(IncrementalBicompTest, MergeRetiresAPathCutpoint) {
  const Graph g = MakeGraph(
      5, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {0, 4}});
  Graph next;
  MergeAndCheck(g, 4, 1, "leaf 4 to core", &next);
  const BiconnectedComponents bcc = ComputeBiconnectedComponents(next);
  EXPECT_EQ(bcc.num_components, 1u);
  EXPECT_EQ(bcc.is_cutpoint[0], 0);
}

// Bridges {0,3} (id 0) and {0,5} (id 1), then the triangle {2,5,6}. The
// new edge 0-2 joins {0,5} and the triangle, and its arc 0->2 comes
// before every old arc, so the merged block takes id 0 and the bridge
// {0,3} moves behind it.
TEST(IncrementalBicompTest, MergeWhoseNewArcIsSmallestMovesItsId) {
  const Graph g = MakeGraph(7, {{0, 3}, {0, 5}, {5, 6}, {6, 2}, {2, 5}});
  const uint32_t merged = MergeAndCheck(g, 0, 2, "merge 0-2");
  EXPECT_EQ(merged, 0u);
}

// Node 4 sits in three blocks — bridges to leaves 5 and 6, then its
// bridge to the core {0,1,2,9} — and the core (id 0) merges with the
// last one: 4's break-point sum now starts with the merged block, ahead
// of the two leaf bridges, and must be re-summed in that order.
TEST(IncrementalBicompTest, MergeReordersAThreeBlockCutpointsSum) {
  const Graph g = MakeGraph(
      10, {{0, 1}, {0, 2}, {0, 9}, {1, 2}, {1, 9}, {2, 9}, {0, 3}, {1, 7},
           {2, 8}, {4, 5}, {4, 6}, {4, 9}});
  const BiconnectedComponents before = ComputeBiconnectedComponents(g);
  ASSERT_EQ(before.NumComponentsOf(4), 3u);
  EXPECT_EQ(MergeAndCheck(g, 4, 1, "merge 4-1"), 0u);
}

// Random mutation streams over the generator sweep: repairs chain (each
// step's output feeds the next), checked bitwise against the serial
// oracle at every step.
TEST(IncrementalBicompTest, RandomStreamsOverGeneratorSweep) {
  struct Case {
    const char* name;
    Graph graph;
  };
  std::vector<Case> cases;
  cases.push_back({"er", ErdosRenyi(70, 140, 41)});
  cases.push_back({"ba", BarabasiAlbert(60, 2, 43)});
  cases.push_back({"ws", WattsStrogatz(60, 4, 0.2, 47)});
  cases.push_back({"grid", RoadGrid(8, 8, 0.85, 53).graph});
  cases.push_back({"sbm", StochasticBlockModel(60, 3, 0.15, 0.01, 59)});
  for (auto& c : cases) {
    SCOPED_TRACE(c.name);
    Graph cur = c.graph;
    BiconnectedComponents bcc = ComputeBiconnectedComponents(cur);
    Rng rng(1000 + cur.num_nodes());
    const NodeId n = cur.num_nodes();
    for (int step = 0; step < 60; ++step) {
      NodeId u = static_cast<NodeId>(rng.UniformInt(n));
      NodeId v = static_cast<NodeId>(rng.UniformInt(n));
      if (u == v) continue;
      const EdgeMutationKind kind = cur.HasEdge(u, v)
                                        ? EdgeMutationKind::kDelete
                                        : EdgeMutationKind::kInsert;
      Applied next = ApplyAndCheck(cur, bcc, kind, u, v,
                                   "step " + std::to_string(step));
      cur = std::move(next.graph);
      bcc = std::move(next.bcc);
    }
  }
}

void ExpectGraphBitwiseEqual(const Graph& a, const Graph& b,
                             const std::string& what) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes()) << what;
  ASSERT_EQ(a.max_degree(), b.max_degree()) << what;
  EXPECT_TRUE(std::ranges::equal(a.raw_offsets(), b.raw_offsets())) << what;
  EXPECT_TRUE(std::ranges::equal(a.raw_adj(), b.raw_adj())) << what;
}

// SpliceEdge chained over random insert/delete streams is, after every
// step, bitwise the CSR GraphBuilder builds from the mutated edge list —
// offsets, adjacency and max_degree — over the generator sweep and five
// larger random families. Every third step deletes an edge at a
// max-degree node, so some deletes lower max_degree.
TEST(SpliceEdgeTest, MatchesRebuildUnderRandomStreams) {
  std::vector<testing::GeneratorCase> cases = testing::GeneratorSweep();
  cases.push_back({"er", ErdosRenyi(120, 400, 7)});
  cases.push_back({"ba", BarabasiAlbert(100, 3, 11)});
  cases.push_back({"ws", WattsStrogatz(90, 6, 0.1, 13)});
  cases.push_back({"grid", RoadGrid(9, 9, 0.9, 17).graph});
  cases.push_back({"sbm", StochasticBlockModel(80, 4, 0.2, 0.01, 19)});
  int lowered = 0;
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const NodeId n = c.graph.num_nodes();
    if (n < 2) continue;
    std::set<std::pair<NodeId, NodeId>> edges;
    for (auto e : c.graph.UndirectedEdges()) edges.insert(e);
    Graph cur = c.graph;
    Rng rng(100 + n);
    for (int step = 0; step < 60; ++step) {
      NodeId u = static_cast<NodeId>(rng.UniformInt(n));
      NodeId v = static_cast<NodeId>(rng.UniformInt(n));
      if (step % 3 == 2 && cur.max_degree() > 0) {
        u = 0;
        while (cur.degree(u) != cur.max_degree()) ++u;
        v = cur.neighbors(u)[rng.UniformInt(cur.degree(u))];
      }
      if (u == v) continue;
      const std::pair<NodeId, NodeId> e{std::min(u, v), std::max(u, v)};
      const bool del = edges.count(e) != 0;
      Graph next;
      ASSERT_TRUE(SpliceEdge(cur,
                             {del ? EdgeMutationKind::kDelete
                                  : EdgeMutationKind::kInsert,
                              u, v},
                             &next)
                      .ok());
      if (del) {
        edges.erase(e);
        if (next.max_degree() < cur.max_degree()) ++lowered;
      } else {
        edges.insert(e);
      }
      GraphBuilder builder;
      for (auto [a, b] : edges) builder.AddEdge(a, b);
      Graph rebuilt;
      ASSERT_TRUE(builder.Build(n, &rebuilt).ok());
      ExpectGraphBitwiseEqual(next, rebuilt, "step " + std::to_string(step));
      cur = std::move(next);
    }
  }
  EXPECT_GT(lowered, 0);
}

// Each rejection keeps its code and message text, checked in order (range,
// then self loop, then presence), and leaves the output graph untouched.
TEST(SpliceEdgeTest, RejectionsKeepTheirMessagesAndLeaveOutUntouched) {
  const Graph g = MakeGraph(4, {{0, 1}, {1, 2}});
  const Graph sentinel = MakeGraph(2, {{0, 1}});
  constexpr EdgeMutationKind kIns = EdgeMutationKind::kInsert;
  constexpr EdgeMutationKind kDel = EdgeMutationKind::kDelete;
  const std::vector<std::pair<EdgeMutation, std::string>> cases = {
      {{kIns, 0, 4}, "edge endpoint out of range: {0, 4} with n=4"},
      {{kIns, 9, 0}, "edge endpoint out of range: {9, 0} with n=4"},
      {{kIns, 9, 9}, "edge endpoint out of range: {9, 9} with n=4"},
      {{kDel, 0, 4}, "edge endpoint out of range: {0, 4} with n=4"},
      {{kIns, 2, 2}, "self loop rejected: {2, 2}"},
      {{kIns, 0, 1}, "duplicate edge: {0, 1} already exists"},
      {{kIns, 1, 0}, "duplicate edge: {1, 0} already exists"},
      {{kDel, 0, 3}, "no such edge: {0, 3}"},
      {{kDel, 3, 0}, "no such edge: {3, 0}"},
      {{kDel, 2, 2}, "no such edge: {2, 2}"},
  };
  for (const auto& [mut, message] : cases) {
    Graph out = sentinel;
    const Status st = SpliceEdge(g, mut, &out);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << message;
    EXPECT_EQ(st.message(), message);
    ExpectGraphBitwiseEqual(out, sentinel, message);
  }
  // The same endpoints in valid mutations go through.
  Graph out;
  ASSERT_TRUE(SpliceEdge(g, {kIns, 0, 3}, &out).ok());
  EXPECT_TRUE(out.HasEdge(3, 0));
  ASSERT_TRUE(SpliceEdge(g, {kDel, 1, 0}, &out).ok());
  EXPECT_FALSE(out.HasEdge(0, 1));
}

}  // namespace
}  // namespace saphyra
