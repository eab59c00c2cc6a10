// Incremental bicomp repair: every mutation's repaired decomposition must
// be BITWISE identical to a from-scratch pass on the mutated graph.
// Directed cases pin each routing branch — same-block insert, path-merge
// insert across cutpoints, bridge insert across components, isolated
// endpoints, block-splitting delete, bridge delete — and random mutation
// streams over the generator sweep chain repairs for hundreds of steps,
// including the forced-fallback route for deletes. Property sweeps pin
// that the partition-keeping route is taken exactly when the oracle's
// member lists do not change, and the merge cases pin that the index
// spliced across a merge equals a fresh one.

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
#include "graph/delta_overlay.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "test_util.h"
#include "util/rng.h"

namespace saphyra {
namespace {

using testing::ExpectBccBitwiseEqual;
using testing::MakeGraph;
using testing::PaperFig2Graph;

/// Apply one mutation to `g` through an overlay and return the repaired
/// decomposition alongside the mutated graph, asserting bitwise equality
/// with the serial oracle.
struct Applied {
  Graph graph;
  BiconnectedComponents bcc;
};

Applied ApplyAndCheck(const Graph& g, const BiconnectedComponents& bcc,
                      EdgeMutationKind kind, NodeId u, NodeId v,
                      const IncrementalBicompOptions& opts,
                      const std::string& what,
                      IncrementalBicompStats* stats = nullptr) {
  DeltaOverlay overlay(&g);
  if (kind == EdgeMutationKind::kInsert) {
    EXPECT_TRUE(overlay.Insert(u, v).ok()) << what;
  } else {
    EXPECT_TRUE(overlay.Remove(u, v).ok()) << what;
  }
  Applied out;
  out.graph = overlay.Materialize();
  out.bcc = RepairBiconnectedComponents(g, bcc, ComponentViews(g, bcc),
                                        out.graph, {kind, u, v}, opts, stats);
  ExpectBccBitwiseEqual(out.bcc, ComputeBiconnectedComponents(out.graph),
                        what);
  return out;
}

const IncrementalBicompOptions kNeverFallBack{/*max_dirty_fraction=*/1.0};

TEST(IncrementalBicompTest, DirectedCasesOnThePaperGraph) {
  // Fig. 2: pentagon {a,b,c,d,e}, triangles {c,g,h} and {i,j,k}, bridges
  // d-f and d-i; cutpoints c, d, i.
  Graph g = PaperFig2Graph();
  BiconnectedComponents bcc = ComputeBiconnectedComponents(g);
  IncrementalBicompStats stats;

  // Insert inside one block: pentagon chord a-d. Only that block dirty.
  Applied chord = ApplyAndCheck(g, bcc, EdgeMutationKind::kInsert, 0, 3,
                                kNeverFallBack, "chord a-d", &stats);
  EXPECT_FALSE(stats.fell_back);
  EXPECT_EQ(stats.dirty_blocks, 1u);

  // Path-merge insert: e(4) to g(6) runs pentagon -> c -> triangle; the
  // two blocks on the block-cut-tree path merge with the new edge.
  Applied merged = ApplyAndCheck(g, bcc, EdgeMutationKind::kInsert, 4, 6,
                                 kNeverFallBack, "merge e-g", &stats);
  EXPECT_FALSE(stats.fell_back);
  EXPECT_EQ(stats.dirty_blocks, 2u);
  EXPECT_EQ(merged.bcc.num_components, bcc.num_components - 1);

  // Long path merge: f(5) to k(10) crosses bridge d-f, bridge d-i and the
  // i-triangle — three blocks collapse into one.
  ApplyAndCheck(g, bcc, EdgeMutationKind::kInsert, 5, 10, kNeverFallBack,
                "merge f-k", &stats);
  EXPECT_EQ(stats.dirty_blocks, 3u);

  // Block-splitting delete: removing pentagon edge a-b leaves a path
  // a-c-d-e... the pentagon splits into four bridge blocks.
  Applied split = ApplyAndCheck(g, bcc, EdgeMutationKind::kDelete, 0, 1,
                                kNeverFallBack, "split pentagon", &stats);
  EXPECT_EQ(stats.dirty_blocks, 1u);
  EXPECT_EQ(split.bcc.num_components, bcc.num_components + 3);

  // Bridge delete: d-f detaches leaf f; the block vanishes, nothing is
  // recomputed.
  Applied detached = ApplyAndCheck(g, bcc, EdgeMutationKind::kDelete, 3, 5,
                                   kNeverFallBack, "drop bridge d-f", &stats);
  EXPECT_EQ(stats.dirty_arcs, 0u);
  EXPECT_EQ(detached.bcc.num_components, bcc.num_components - 1);

  // Bridge insert across components: detach f, then reconnect it
  // elsewhere — the repair sees two components and adds one bridge block.
  Applied rejoined =
      ApplyAndCheck(detached.graph, detached.bcc, EdgeMutationKind::kInsert,
                    5, 9, kNeverFallBack, "reconnect f-j", &stats);
  EXPECT_EQ(stats.dirty_blocks, 0u);
  EXPECT_EQ(rejoined.bcc.num_components, detached.bcc.num_components + 1);
}

TEST(IncrementalBicompTest, IsolatedEndpointsAndTinyGraphs) {
  // Two isolated nodes joined: first edge of the graph.
  Graph empty = MakeGraph(4, {});
  BiconnectedComponents bcc = ComputeBiconnectedComponents(empty);
  Applied first = ApplyAndCheck(empty, bcc, EdgeMutationKind::kInsert, 1, 3,
                                kNeverFallBack, "first edge");
  EXPECT_EQ(first.bcc.num_components, 1u);

  // Isolated node attached to an existing block.
  Applied second = ApplyAndCheck(first.graph, first.bcc,
                                 EdgeMutationKind::kInsert, 0, 1,
                                 kNeverFallBack, "attach isolated");
  // Deleting the last edge of a 2-node component isolates both ends.
  Applied gone = ApplyAndCheck(second.graph, second.bcc,
                               EdgeMutationKind::kDelete, 1, 3,
                               kNeverFallBack, "drop isolated edge");
  EXPECT_EQ(gone.bcc.node_component[3], kInvalidComp);

  // Triangle closure over a path: 0-1-2 plus 0-2.
  Graph path = MakeGraph(3, {{0, 1}, {1, 2}});
  BiconnectedComponents path_bcc = ComputeBiconnectedComponents(path);
  Applied tri = ApplyAndCheck(path, path_bcc, EdgeMutationKind::kInsert, 0, 2,
                              kNeverFallBack, "close triangle");
  EXPECT_EQ(tri.bcc.num_components, 1u);
  EXPECT_EQ(tri.bcc.is_cutpoint[1], 0);
}

TEST(IncrementalBicompTest, FallbackRouteIsBitwiseInvisible) {
  Graph g = WattsStrogatz(60, 4, 0.1, 31);
  BiconnectedComponents bcc = ComputeBiconnectedComponents(g);
  // max_dirty_fraction = 0 forces the full-pass fallback on every
  // delete that splits a block (inserts and deletes that keep the
  // partition never get there); the output must not change. The deleted
  // edge is the first one whose delete splits a block of three or more
  // nodes.
  NodeId u = kInvalidNode;
  NodeId v = kInvalidNode;
  for (NodeId x = 0; x < g.num_nodes() && u == kInvalidNode; ++x) {
    const auto nbr = g.neighbors(x);
    for (size_t i = 0; i < nbr.size(); ++i) {
      const NodeId y = nbr[i];
      const uint32_t c = bcc.arc_component[g.offset(x) + i];
      if (y < x || bcc.component_nodes[c].size() < 3) continue;
      DeltaOverlay overlay(&g);
      ASSERT_TRUE(overlay.Remove(x, y).ok());
      if (ComputeBiconnectedComponents(overlay.Materialize()).num_components >
          bcc.num_components) {
        u = x;
        v = y;
        break;
      }
    }
  }
  ASSERT_NE(u, kInvalidNode) << "no block-splitting delete in the graph";
  IncrementalBicompOptions always_fall{/*max_dirty_fraction=*/0.0};
  IncrementalBicompStats stats;
  ApplyAndCheck(g, bcc, EdgeMutationKind::kDelete, u, v, always_fall,
                "forced fallback", &stats);
  EXPECT_TRUE(stats.fell_back);
}

// Inserts are a closed-form relabel under the default options: even when
// the merged region is most of the graph (an edge inside the giant block,
// or a leaf joined to the core, which merges its bridge block into the
// giant one), the repair never falls back to a full pass.
TEST(IncrementalBicompTest, InsertsNeverFallBack) {
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
                                 IncrementalBicompOptions{},
                                 "step " + std::to_string(step), &stats);
    EXPECT_FALSE(stats.fell_back) << "step " << step;
    if (merge) {
      // The relabeled region is past the default dirty budget: a route
      // that recomputed it would have fallen back.
      EXPECT_GT(static_cast<double>(stats.dirty_arcs),
                0.25 * static_cast<double>(next.graph.num_arcs()))
          << "step " << step;
      EXPECT_GE(stats.dirty_blocks, 2u) << "step " << step;
    } else {
      // Inside the giant block the partition stands: nothing relabeled.
      EXPECT_TRUE(stats.kept_partition) << "step " << step;
      EXPECT_EQ(stats.dirty_arcs, 0u) << "step " << step;
      EXPECT_EQ(stats.dirty_blocks, 1u) << "step " << step;
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

/// Applies `kind` {u,v} to `base` and checks the routing: kept_partition
/// holds exactly when the oracle's member lists did not change, and then
/// nothing was relabeled or recomputed. Returns kept_partition.
bool CheckRouting(const Graph& base, const BiconnectedComponents& bcc,
                  EdgeMutationKind kind, NodeId u, NodeId v,
                  const std::string& what) {
  IncrementalBicompStats stats;
  Applied next = ApplyAndCheck(base, bcc, kind, u, v,
                               IncrementalBicompOptions{}, what, &stats);
  const bool unchanged =
      ComputeBiconnectedComponents(next.graph).component_nodes ==
      bcc.component_nodes;
  EXPECT_EQ(stats.kept_partition, unchanged) << what;
  if (stats.kept_partition) {
    EXPECT_FALSE(stats.fell_back) << what;
    EXPECT_EQ(stats.dirty_arcs, 0u) << what;
  }
  return stats.kept_partition;
}

// Delete routing is exact: every edge of every block with three or more
// nodes, deleted one at a time from the same base, takes the two-path
// route exactly when the block survives whole.
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
  const NodeComponentIndex index(bcc);
  int inserts = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = u + 1; v < g.num_nodes(); ++v) {
      const auto cu = index.Components(u);
      const auto cv = index.Components(v);
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
  Applied next = ApplyAndCheck(g, bcc, EdgeMutationKind::kInsert, 0, 1,
                               IncrementalBicompOptions{}, "chord 0-1",
                               &stats);
  EXPECT_FALSE(stats.kept_partition);
  EXPECT_TRUE(stats.merged());
  EXPECT_EQ(stats.dirty_blocks, 1u);
  EXPECT_GT(stats.dirty_arcs, 0u);
  EXPECT_EQ(next.bcc.num_components, bcc.num_components);
  EXPECT_NE(next.bcc.arc_component[next.graph.offset(0) + 1],
            bcc.arc_component[g.offset(0)]);
}

/// Inserts {u,v} into `g`, which must merge blocks, and checks the merge
/// route end to end: the repaired decomposition equals the serial
/// oracle's, and the index spliced from a fresh index of `g` equals a
/// fresh index of the new graph, sharing the parent's connectivity.
IncrementalBicompStats MergeAndCheck(const Graph& g, NodeId u, NodeId v,
                                     const std::string& what,
                                     Graph* next = nullptr) {
  const IspIndex parent(g);
  DeltaOverlay overlay(&g);
  EXPECT_TRUE(overlay.Insert(u, v).ok()) << what;
  Graph merged_graph = overlay.Materialize();
  const EdgeMutation mut{EdgeMutationKind::kInsert, u, v};
  IncrementalBicompStats stats;
  BiconnectedComponents bcc =
      RepairBiconnectedComponents(g, parent.bcc(), parent.views(),
                                  merged_graph, mut, {}, &stats);
  ExpectBccBitwiseEqual(bcc, ComputeBiconnectedComponents(merged_graph),
                        what);
  EXPECT_TRUE(stats.merged()) << what;
  EXPECT_FALSE(stats.kept_partition) << what;
  if (stats.merged()) {
    const IspIndex spliced(merged_graph, parent, std::move(bcc), mut, stats);
    testing::ExpectSameIndex(spliced, IspIndex(merged_graph), what);
    EXPECT_EQ(&spliced.conn(), &parent.conn()) << what;
  }
  if (next != nullptr) *next = std::move(merged_graph);
  return stats;
}

// The core K4 {0,1,2,3} with leaves 4 and 5 on node 0 and leaf 6 on node
// 1: the merge route's shapes on a leaf-heavy graph.
Graph CoreWithLeaves() {
  return MakeGraph(7, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
                       {0, 4}, {0, 5}, {1, 6}});
}

TEST(IncrementalBicompTest, MergeLeafIntoCore) {
  Graph next;
  const IncrementalBicompStats stats =
      MergeAndCheck(CoreWithLeaves(), 4, 2, "leaf 4 to core", &next);
  EXPECT_EQ(stats.merge.blocks.size(), 2u);
  EXPECT_EQ(stats.merge.cutpoints, std::vector<NodeId>{0});
  // Node 0 keeps leaf 5, so it stays a cutpoint.
  EXPECT_EQ(ComputeBiconnectedComponents(next).is_cutpoint[0], 1);
}

TEST(IncrementalBicompTest, MergeLeafToLeafThroughTheCore) {
  Graph next;
  const IncrementalBicompStats stats =
      MergeAndCheck(CoreWithLeaves(), 4, 6, "leaf 4 to leaf 6", &next);
  EXPECT_EQ(stats.merge.blocks.size(), 3u);
  EXPECT_EQ(stats.merge.cutpoints, (std::vector<NodeId>{0, 1}));
  // Node 1 loses its only other block; node 0 keeps leaf 5.
  const BiconnectedComponents bcc = ComputeBiconnectedComponents(next);
  EXPECT_EQ(bcc.is_cutpoint[0], 1);
  EXPECT_EQ(bcc.is_cutpoint[1], 0);
}

TEST(IncrementalBicompTest, MergeTwoLeavesOfOneHubIntoATriangle) {
  Graph next;
  const IncrementalBicompStats stats =
      MergeAndCheck(CoreWithLeaves(), 4, 5, "leaves 4-5", &next);
  EXPECT_EQ(stats.merge.blocks.size(), 2u);
  EXPECT_EQ(stats.merge.cutpoints, std::vector<NodeId>{0});
  const BiconnectedComponents bcc = ComputeBiconnectedComponents(next);
  EXPECT_EQ(bcc.component_nodes[stats.merge.merged_id].size(), 3u);
  EXPECT_EQ(bcc.is_cutpoint[0], 1);
}

// A path cutpoint whose only two blocks merge stops being a cutpoint.
TEST(IncrementalBicompTest, MergeRetiresAPathCutpoint) {
  const Graph g = MakeGraph(
      5, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {0, 4}});
  Graph next;
  const IncrementalBicompStats stats =
      MergeAndCheck(g, 4, 1, "leaf 4 to core", &next);
  EXPECT_EQ(stats.merge.cutpoints, std::vector<NodeId>{0});
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
  const IncrementalBicompStats stats = MergeAndCheck(g, 0, 2, "merge 0-2");
  EXPECT_EQ(stats.merge.blocks, (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(stats.merge.merged_id, 0u);
  EXPECT_EQ(stats.merge.next_old, 0u);
  EXPECT_EQ(stats.merge.cutpoints, std::vector<NodeId>{5});
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
  const IncrementalBicompStats stats = MergeAndCheck(g, 4, 1, "merge 4-1");
  EXPECT_EQ(stats.merge.merged_id, 0u);
  EXPECT_EQ(stats.merge.blocks.size(), 2u);
  EXPECT_GT(stats.merge.blocks[1], before.node_component[4]);
}

// Random mutation streams over the generator sweep: repairs chain (each
// step's output feeds the next), checked bitwise against the serial
// oracle at every step, under both the never-fallback and the default
// (mixed repair/fallback) routing.
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
  for (const IncrementalBicompOptions& opts :
       {kNeverFallBack, IncrementalBicompOptions{}}) {
    for (auto& c : cases) {
      SCOPED_TRACE(std::string(c.name) +
                   (opts.max_dirty_fraction == 1.0 ? "/repair" : "/default"));
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
        Applied next = ApplyAndCheck(cur, bcc, kind, u, v, opts,
                                     "step " + std::to_string(step));
        cur = std::move(next.graph);
        bcc = std::move(next.bcc);
      }
    }
  }
}

}  // namespace
}  // namespace saphyra
