// Incremental bicomp repair: every mutation's repaired decomposition must
// be BITWISE identical to a from-scratch serial pass on the mutated graph
// (and therefore to the parallel pass, by the canonicalization contract).
// Directed cases pin each routing branch — same-block insert, path-merge
// insert across cutpoints, bridge insert across components, isolated
// endpoints, block-splitting delete, bridge delete — and random mutation
// streams over the generator sweep chain repairs for hundreds of steps,
// including the forced-fallback route for deletes.

#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bicomp/biconnected.h"
#include "bicomp/incremental.h"
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
  out.bcc = RepairBiconnectedComponents(g, bcc, out.graph, {kind, u, v},
                                        opts, stats);
  ExpectBccBitwiseEqual(out.bcc, ComputeBiconnectedComponents(out.graph),
                        what);
  return out;
}

const IncrementalBicompOptions kNeverFallBack{/*max_dirty_fraction=*/1.0,
                                              /*fallback_threads=*/1};

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
  // max_dirty_fraction = 0 forces the parallel-pass fallback on every
  // delete that splits a block (inserts never fall back); the output must
  // not change.
  const NodeId u = 0;
  const NodeId v = g.neighbors(u)[0];
  ASSERT_GT(bcc.component_nodes[bcc.arc_component[g.offset(u)]].size(), 2u)
      << "the deleted edge must not be a bridge";
  IncrementalBicompOptions always_fall{/*max_dirty_fraction=*/0.0,
                                       /*fallback_threads=*/8};
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
  const std::vector<NodeId> members = bcc.component_nodes[giant];
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
    // The relabeled region is past the default dirty budget: a route that
    // recomputed it would have fallen back.
    EXPECT_GT(static_cast<double>(stats.dirty_arcs),
              0.25 * static_cast<double>(next.graph.num_arcs()))
        << "step " << step;
    if (merge) {
      EXPECT_GE(stats.dirty_blocks, 2u) << "step " << step;
    } else {
      EXPECT_EQ(stats.dirty_blocks, 1u) << "step " << step;
    }
    ++(merge ? merges : inside);
    cur = std::move(next.graph);
    bcc = std::move(next.bcc);
  }
  EXPECT_GE(inside, 10);
  EXPECT_GE(merges, 10);
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
