#include "bicomp/isp.h"

#include <cmath>
#include <map>

#include <gtest/gtest.h>

#include "bc/brandes.h"
#include "graph/generators.h"
#include "test_util.h"

namespace saphyra {
namespace {

using testing::AllShortestPaths;
using testing::MakeGraph;
using testing::PaperFig2Graph;
using testing::RandomConnectedGraph;

// Enumerate the full ISP sample space of `isp`: every intra-component
// shortest path with its D_c probability q_st/(γ·σ_st). Small graphs only.
struct IspEnumeration {
  // Per node v: E_{p~D_c}[g(v,p)] (probability v is an inner node).
  std::vector<double> inner_mass;
  double total_probability = 0.0;
};

IspEnumeration EnumerateIsp(const IspIndex& isp) {
  const Graph& g = isp.graph();
  IspEnumeration out;
  out.inner_mass.assign(g.num_nodes(), 0.0);
  for (uint32_t c = 0; c < isp.num_components(); ++c) {
    const auto& nodes = isp.bcc().component_nodes[c];
    std::function<bool(EdgeIndex)> arc_ok = [&](EdgeIndex e) {
      return isp.bcc().arc_component[e] == c;
    };
    for (NodeId s : nodes) {
      for (NodeId t : nodes) {
        if (s == t) continue;
        auto paths = AllShortestPaths(g, s, t, &arc_ok);
        SAPHYRA_CHECK(!paths.empty());
        double p_path =
            isp.PairMass(c, s, t) / isp.gamma() / paths.size();
        for (const auto& path : paths) {
          out.total_probability += p_path;
          for (size_t i = 1; i + 1 < path.size(); ++i) {
            out.inner_mass[path[i]] += p_path;
          }
        }
      }
    }
  }
  return out;
}

TEST(IspIndex, GammaNormalizesTheDistribution) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Graph g = RandomConnectedGraph(16, 0.12, seed);
    IspIndex isp(g);
    IspEnumeration e = EnumerateIsp(isp);
    EXPECT_NEAR(e.total_probability, 1.0, 1e-9) << "seed " << seed;
  }
}

TEST(IspIndex, Lemma13DecompositionOnFig2) {
  Graph g = PaperFig2Graph();
  IspIndex isp(g);
  IspEnumeration e = EnumerateIsp(isp);
  std::vector<double> bc = BrandesBetweenness(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_NEAR(bc[v], isp.gamma() * e.inner_mass[v] + isp.bca(v), 1e-9)
        << "node " << v;
  }
}

class IspRandomized : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IspRandomized, Lemma13Decomposition) {
  Rng rng(GetParam());
  NodeId n = 6 + static_cast<NodeId>(rng.UniformInt(16));
  Graph g = RandomConnectedGraph(n, rng.UniformDouble() * 0.2,
                                 GetParam() * 97 + 3);
  IspIndex isp(g);
  IspEnumeration e = EnumerateIsp(isp);
  std::vector<double> bc = BrandesBetweenness(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_NEAR(bc[v], isp.gamma() * e.inner_mass[v] + isp.bca(v), 1e-9)
        << "node " << v << " seed " << GetParam();
  }
}

TEST_P(IspRandomized, BcaIsZeroForNonCutpoints) {
  Graph g = RandomConnectedGraph(20, 0.1, GetParam() + 50);
  IspIndex isp(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!isp.bcc().is_cutpoint[v]) {
      EXPECT_DOUBLE_EQ(isp.bca(v), 0.0);
    } else {
      EXPECT_GT(isp.bca(v), 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IspRandomized,
                         ::testing::Range<uint64_t>(0, 10));

TEST(IspIndex, PathGraphBca) {
  // a-b-c: bc(b) = 2/(3*2) = 1/3, entirely break-point mass.
  Graph g = MakeGraph(3, {{0, 1}, {1, 2}});
  IspIndex isp(g);
  EXPECT_NEAR(isp.bca(1), 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(isp.bca(0), 0.0);
  std::vector<double> bc = BrandesBetweenness(g);
  EXPECT_NEAR(bc[1], isp.bca(1), 1e-12);
}

TEST(IspIndex, StarBcaMatchesBc) {
  // Star center: bc = (n-1)(n-2)/(n(n-1)); all of it break-point mass.
  Graph g = MakeGraph(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  IspIndex isp(g);
  std::vector<double> bc = BrandesBetweenness(g);
  EXPECT_NEAR(isp.bca(0), bc[0], 1e-12);
  EXPECT_NEAR(bc[0], 4.0 * 3.0 / (5.0 * 4.0), 1e-12);
}

TEST(IspIndex, MultistageSamplingMatchesPairMass) {
  // Empirically verify stage 1-3 of Algorithm 2: the ordered pair (s,t)
  // must be drawn with probability q_st / (γη).
  Graph g = PaperFig2Graph();
  IspIndex isp(g);
  std::vector<NodeId> all(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) all[v] = v;
  PersonalizedSpace space(isp, all);
  EXPECT_NEAR(space.eta(), 1.0, 1e-12);

  Rng rng(123);
  std::map<std::pair<NodeId, NodeId>, int> counts;
  constexpr int kDraws = 400000;
  for (int i = 0; i < kDraws; ++i) {
    uint32_t c = space.SampleComponent(&rng);
    NodeId s = isp.SampleSource(c, &rng);
    NodeId t = isp.SampleTarget(c, s, &rng);
    // Both draws are member indices of c.
    const auto& members = isp.bcc().component_nodes[c];
    ASSERT_LT(s, members.size());
    ASSERT_LT(t, members.size());
    ASSERT_NE(s, t);
    ++counts[{members[s], members[t]}];
  }
  // Compare a handful of representative pairs.
  double total_checked = 0.0;
  for (uint32_t c = 0; c < isp.num_components(); ++c) {
    const auto& nodes = isp.bcc().component_nodes[c];
    for (NodeId s : nodes) {
      for (NodeId t : nodes) {
        if (s == t) continue;
        double expected = isp.PairMass(c, s, t) / isp.gamma();
        double got = counts[{s, t}] / static_cast<double>(kDraws);
        EXPECT_NEAR(got, expected, 0.004)
            << "pair " << s << "," << t << " comp " << c;
        total_checked += expected;
      }
    }
  }
  EXPECT_NEAR(total_checked, 1.0, 1e-9);
}

TEST(PersonalizedSpace, ComponentsOfTargets) {
  Graph g = PaperFig2Graph();
  IspIndex isp(g);
  // A = {f(5), j(9)}: I(A) = {comp(d,f), comp(i,j,k)}.
  PersonalizedSpace space(isp, {5, 9});
  EXPECT_EQ(space.component_ids().size(), 2u);
  EXPECT_EQ(space.HypothesisIndex(5), 0);
  EXPECT_EQ(space.HypothesisIndex(9), 1);
  EXPECT_EQ(space.HypothesisIndex(0), -1);
}

TEST(PersonalizedSpace, EtaMatchesEnumeration) {
  Graph g = PaperFig2Graph();
  IspIndex isp(g);
  PersonalizedSpace space(isp, {9});  // only the {i,j,k} triangle
  double expected_mass = 0.0;
  uint32_t tri = space.component_ids()[0];
  const auto& nodes = isp.bcc().component_nodes[tri];
  for (NodeId s : nodes) {
    for (NodeId t : nodes) {
      if (s != t) expected_mass += isp.PairMass(tri, s, t);
    }
  }
  EXPECT_NEAR(space.eta(), expected_mass / isp.gamma(), 1e-12);
  EXPECT_GT(space.eta(), 0.0);
  EXPECT_LT(space.eta(), 1.0);
}

TEST(PersonalizedSpace, CutpointTargetJoinsAllItsComponents) {
  Graph g = PaperFig2Graph();
  IspIndex isp(g);
  PersonalizedSpace space(isp, {3});  // d belongs to 3 components
  EXPECT_EQ(space.component_ids().size(), 3u);
}

TEST(PersonalizedSpace, WholeNetworkEtaIsOne) {
  Graph g = RandomConnectedGraph(30, 0.1, 7);
  IspIndex isp(g);
  std::vector<NodeId> all(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) all[v] = v;
  PersonalizedSpace space(isp, all);
  EXPECT_NEAR(space.eta(), 1.0, 1e-12);
}

TEST(PersonalizedSpace, SampledComponentsOnlyFromIA) {
  Graph g = PaperFig2Graph();
  IspIndex isp(g);
  PersonalizedSpace space(isp, {9, 10});
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    uint32_t c = space.SampleComponent(&rng);
    bool in_ia = false;
    for (uint32_t x : space.component_ids()) in_ia |= (x == c);
    ASSERT_TRUE(in_ia);
  }
}

TEST(IspIndex, ComponentsOfNonCutpoint) {
  Graph g = PaperFig2Graph();
  IspIndex isp(g);
  auto comps = isp.ComponentsOf(0);  // a: pentagon only
  EXPECT_EQ(comps.size(), 1u);
  auto comps_d = isp.ComponentsOf(3);
  EXPECT_EQ(comps_d.size(), 3u);
}

}  // namespace
}  // namespace saphyra
