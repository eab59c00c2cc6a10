#include "bicomp/block_cut_tree.h"

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "test_util.h"

namespace saphyra {
namespace {

using testing::MakeGraph;
using testing::PaperFig2Graph;
using testing::RandomConnectedGraph;

struct Decomposition {
  Graph g;
  BiconnectedComponents bcc;
  ComponentLabels conn;
  BlockCutTree tree;

  explicit Decomposition(Graph graph)
      : g(std::move(graph)),
        bcc(ComputeBiconnectedComponents(g)),
        conn(ConnectedComponents(g)),
        tree(BlockCutTree::Derive(
            bcc, std::make_shared<const ComponentLabels>(conn), nullptr, {})) {}
};

// Component id containing both u and v (looked up via u's arcs).
uint32_t CompOf(const Decomposition& d, NodeId u, NodeId v) {
  auto nbr = d.g.neighbors(u);
  for (size_t i = 0; i < nbr.size(); ++i) {
    if (nbr[i] == v) return d.bcc.arc_component[d.g.offset(u) + i];
  }
  return kInvalidComp;
}

TEST(BlockCutTree, PathGraphOutReach) {
  // a-b-c: comps {a,b}, {b,c}; r for b in {a,b} is |{b,c}| = 2.
  Decomposition d(MakeGraph(3, {{0, 1}, {1, 2}}));
  uint32_t c_ab = CompOf(d, 0, 1);
  uint32_t c_bc = CompOf(d, 1, 2);
  EXPECT_EQ(d.tree.OutReach(c_ab, 0), 1u);
  EXPECT_EQ(d.tree.OutReach(c_ab, 1), 2u);
  EXPECT_EQ(d.tree.OutReach(c_bc, 1), 2u);
  EXPECT_EQ(d.tree.OutReach(c_bc, 2), 1u);
}

TEST(BlockCutTree, StarOutReach) {
  Decomposition d(MakeGraph(4, {{0, 1}, {0, 2}, {0, 3}}));
  for (NodeId leaf = 1; leaf < 4; ++leaf) {
    uint32_t c = CompOf(d, 0, leaf);
    // Center reaches itself + the two other leaves avoiding this component.
    EXPECT_EQ(d.tree.OutReach(c, 0), 3u);
    EXPECT_EQ(d.tree.OutReach(c, leaf), 1u);
    EXPECT_EQ(d.tree.HangSize(c, 0), 1u);
  }
}

TEST(BlockCutTree, PaperFig2OutReach) {
  Decomposition d(PaperFig2Graph());
  // d(3) in the pentagon: avoiding the pentagon it reaches {d, f, i, j, k}.
  uint32_t pent = CompOf(d, 0, 1);
  EXPECT_EQ(d.tree.OutReach(pent, 3), 5u);
  // c(2) in the pentagon: avoiding it c reaches {c, g, h}.
  EXPECT_EQ(d.tree.OutReach(pent, 2), 3u);
  // Non-cutpoint a(0): just itself.
  EXPECT_EQ(d.tree.OutReach(pent, 0), 1u);
  // d in the bridge {d,f}: reaches everything except f -> 10 nodes.
  uint32_t df = CompOf(d, 3, 5);
  EXPECT_EQ(d.tree.OutReach(df, 3), 10u);
  EXPECT_EQ(d.tree.OutReach(df, 5), 1u);
  // i in the triangle {i,j,k}: reaches all but j,k -> 9.
  uint32_t ijk = CompOf(d, 8, 9);
  EXPECT_EQ(d.tree.OutReach(ijk, 8), 9u);
  // d in the bridge {d,i}: reaches {a,b,c,d,e,f,g,h} -> 8.
  uint32_t di = CompOf(d, 3, 8);
  EXPECT_EQ(d.tree.OutReach(di, 3), 8u);
  EXPECT_EQ(d.tree.OutReach(di, 8), 3u);  // i + {j,k}
}

TEST(BlockCutTree, HangSizeIsComplement) {
  Decomposition d(PaperFig2Graph());
  for (uint32_t c = 0; c < d.bcc.num_components; ++c) {
    for (NodeId v : d.bcc.component_nodes[c]) {
      EXPECT_EQ(d.tree.OutReach(c, v) + d.tree.HangSize(c, v),
                d.tree.conn_size_of_comp(c));
    }
  }
}

TEST(BlockCutTree, ConnSizes) {
  Decomposition d(MakeGraph(6, {{0, 1}, {1, 2}, {3, 4}}));
  EXPECT_EQ(d.tree.conn_size_of_node(0), 3u);
  EXPECT_EQ(d.tree.conn_size_of_node(3), 2u);
  EXPECT_EQ(d.tree.conn_size_of_node(5), 1u);
}

// Claim 9 / Eq. 18 of the paper: for every component,
// Σ_{v∈C_i} r_i(v) = size of the connected component.
class OutReachSum : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OutReachSum, SumsToComponentSize) {
  Rng rng(GetParam());
  NodeId n = 4 + static_cast<NodeId>(rng.UniformInt(60));
  Graph g = RandomConnectedGraph(n, rng.UniformDouble() * 0.12,
                                 GetParam() * 13 + 5);
  Decomposition d(std::move(g));
  for (uint32_t c = 0; c < d.bcc.num_components; ++c) {
    uint64_t sum = 0;
    for (NodeId v : d.bcc.component_nodes[c]) {
      sum += d.tree.OutReach(c, v);
    }
    EXPECT_EQ(sum, d.tree.conn_size_of_comp(c)) << "component " << c;
  }
}

TEST_P(OutReachSum, BruteForceReachabilityOracle) {
  // r_i(v) must equal the number of nodes reachable from v when the other
  // nodes of C_i are deleted.
  Graph g = RandomConnectedGraph(18, 0.1, GetParam() + 999);
  Decomposition d(std::move(g));
  for (uint32_t c = 0; c < d.bcc.num_components; ++c) {
    for (NodeId v : d.bcc.component_nodes[c]) {
      // BFS avoiding C_i \ {v}.
      std::vector<uint8_t> blocked(d.g.num_nodes(), 0);
      for (NodeId w : d.bcc.component_nodes[c]) blocked[w] = 1;
      blocked[v] = 0;
      std::vector<NodeId> queue{v};
      std::vector<uint8_t> seen(d.g.num_nodes(), 0);
      seen[v] = 1;
      uint64_t reach = 0;
      for (size_t head = 0; head < queue.size(); ++head) {
        NodeId u = queue[head];
        ++reach;
        for (NodeId w : d.g.neighbors(u)) {
          if (!seen[w] && !blocked[w]) {
            seen[w] = 1;
            queue.push_back(w);
          }
        }
      }
      EXPECT_EQ(d.tree.OutReach(c, v), reach)
          << "comp " << c << " node " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OutReachSum, ::testing::Range<uint64_t>(0, 10));

TEST(BlockCutTree, DisconnectedGraphUsesComponentSizes) {
  // Two separate paths: sums must use each component's size, not n.
  Decomposition d(MakeGraph(7, {{0, 1}, {1, 2}, {3, 4}, {4, 5}, {5, 6}}));
  for (uint32_t c = 0; c < d.bcc.num_components; ++c) {
    uint64_t sum = 0;
    for (NodeId v : d.bcc.component_nodes[c]) sum += d.tree.OutReach(c, v);
    EXPECT_EQ(sum, d.tree.conn_size_of_comp(c));
  }
}

// The persisted out-reach table round-trips, and an entry that names no
// cutpoint membership or carries an impossible reach is an IOError, not
// an out-of-bounds write.
TEST(BlockCutTree, FromPartsChecksTheCutReachTable) {
  Decomposition d(PaperFig2Graph());
  const std::vector<uint64_t> table = d.tree.CutReachTable();
  ASSERT_FALSE(table.empty());
  BlockCutTree back;
  ASSERT_TRUE(BlockCutTree::FromParts(d.bcc, d.conn,
                                      d.tree.conn_size_of_comp_table(), table,
                                      &back)
                  .ok());
  EXPECT_TRUE(std::ranges::equal(back.reach(), d.tree.reach()));

  const uint64_t key = table[0];
  const uint32_t comp = static_cast<uint32_t>(key >> 32);
  // Node 0 (a) is no cutpoint; node 2 (c) is one but not in the bridge
  // d-f.
  const uint32_t df = CompOf(d, 3, 5);
  const std::vector<std::pair<uint64_t, uint64_t>> bad = {
      {(uint64_t{comp} << 32) | 0, 1},                    // not a cutpoint
      {(uint64_t{df} << 32) | 2, 1},                      // not a member
      {(uint64_t{d.bcc.num_components} << 32) | 2, 1},    // no such block
      {(uint64_t{comp} << 32) | 0xFFFFFFFFu, 1},          // no such node
      {key, 0},                                           // reach 0
      {key, d.tree.conn_size_of_comp(comp) + 1},          // past |conn|
  };
  for (const auto& [k, r] : bad) {
    std::vector<uint64_t> corrupt = table;
    corrupt[0] = k;
    corrupt[1] = r;
    const Status st =
        BlockCutTree::FromParts(d.bcc, d.conn, d.tree.conn_size_of_comp_table(),
                                corrupt, &back);
    EXPECT_EQ(st.code(), StatusCode::kIOError) << k << " -> " << r;
  }
}

}  // namespace
}  // namespace saphyra
