// End-to-end distributional tests of the Gen_bc sampler (Algorithm 2):
// the empirical frequency of every sampled path must match the PISP
// distribution conditioned on the approximate subspace (Lemma 20), and the
// SampleTarget fallback paths (bridges, dominant-out-reach cutpoints) must
// produce the exact conditional distribution.

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "bc/exact_subspace.h"
#include "bc/path_sampler.h"
#include "bc/saphyra_bc.h"
#include "bicomp/isp.h"
#include "graph/generators.h"
#include "test_util.h"
#include "util/hash.h"

namespace saphyra {
namespace {

using testing::AllShortestPaths;
using testing::BaCoreWithLeaves;
using testing::MakeGraph;
using testing::PaperFig2Graph;

std::string Key(const std::vector<NodeId>& nodes) {
  std::string k;
  for (NodeId v : nodes) {
    k += std::to_string(v);
    k += ',';
  }
  return k;
}

// Enumerate Pr[x = p | p not in exact subspace] over the PISP space.
std::map<std::string, double> EnumerateApproxDistribution(
    const PersonalizedSpace& space) {
  const IspIndex& isp = space.isp();
  const Graph& g = isp.graph();
  std::map<std::string, double> prob;
  double kept_mass = 0.0;
  for (uint32_t c : space.component_ids()) {
    const auto& nodes = isp.bcc().component_nodes[c];
    std::function<bool(EdgeIndex)> arc_ok = [&](EdgeIndex e) {
      return isp.bcc().arc_component[e] == c;
    };
    for (NodeId s : nodes) {
      for (NodeId t : nodes) {
        if (s == t) continue;
        auto paths = AllShortestPaths(g, s, t, &arc_ok);
        double p_path = isp.PairMass(c, s, t) /
                        (isp.gamma() * space.eta()) / paths.size();
        for (const auto& p : paths) {
          if (InExactSubspace(space, p)) continue;
          prob[Key(p)] += p_path;
          kept_mass += p_path;
        }
      }
    }
  }
  for (auto& [k, v] : prob) v /= kept_mass;  // condition on the rejection
  return prob;
}

void RunDistributionCheck(const Graph& g, const std::vector<NodeId>& targets,
                          uint64_t seed, int draws) {
  IspIndex isp(g);
  PersonalizedSpace space(isp, targets);
  auto expected = EnumerateApproxDistribution(space);
  ASSERT_FALSE(expected.empty());

  PathSampler sampler(g, &isp.views());
  Rng rng(seed);
  PathSample path;
  std::map<std::string, int> counts;
  for (int i = 0; i < draws; ++i) {
    for (;;) {
      uint32_t c = space.SampleComponent(&rng);
      NodeId s = isp.SampleSource(c, &rng);
      NodeId t = isp.SampleTarget(c, s, &rng);
      ASSERT_TRUE(sampler.SampleRestrictedPath(
          c, s, t, SamplingStrategy::kBidirectional, &rng, &path));
      if (InExactSubspace(space, path.nodes)) continue;
      break;
    }
    ++counts[Key(path.nodes)];
  }
  // Every sampled path must be a legal outcome, and frequencies must match.
  for (auto& [key, c] : counts) {
    ASSERT_TRUE(expected.count(key) > 0) << "unexpected path " << key;
  }
  for (auto& [key, p] : expected) {
    double freq = counts[key] / static_cast<double>(draws);
    EXPECT_NEAR(freq, p, 0.015 + 3.0 * std::sqrt(p / draws)) << key;
  }
}

TEST(GenBcDistribution, PaperFig2WholeNetwork) {
  Graph g = PaperFig2Graph();
  std::vector<NodeId> all(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) all[v] = v;
  RunDistributionCheck(g, all, 1, 200000);
}

TEST(GenBcDistribution, PaperFig2SmallSubset) {
  Graph g = PaperFig2Graph();
  RunDistributionCheck(g, {1, 9}, 2, 150000);
}

TEST(GenBcDistribution, StarOfTrianglesDominantCutpoint) {
  // Center node 0 belongs to three triangles; its out-reach regarding each
  // triangle dominates, exercising the inversion fallback of SampleTarget.
  Graph g = MakeGraph(7, {{0, 1}, {1, 2}, {2, 0},    // triangle A
                          {0, 3}, {3, 4}, {4, 0},    // triangle B
                          {0, 5}, {5, 6}, {6, 0}});  // triangle C
  std::vector<NodeId> all(7);
  for (NodeId v = 0; v < 7; ++v) all[v] = v;
  RunDistributionCheck(g, all, 3, 150000);
}

TEST(GenBcDistribution, HubWithLeavesBridgeFallback) {
  // A triangle with a hub that also carries many leaf bridges: the 2-node
  // bridge components take the direct "other endpoint" path.
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  for (NodeId leaf = 3; leaf < 12; ++leaf) b.AddEdge(0, leaf);
  Graph g;
  ASSERT_TRUE(b.Build(12, &g).ok());
  std::vector<NodeId> all(12);
  for (NodeId v = 0; v < 12; ++v) all[v] = v;
  RunDistributionCheck(g, all, 4, 150000);
}

TEST(GenBcDistribution, PathPlusCycleMixedComponents) {
  // Cycle of 5 with a pendant path of 3: bridges + one non-trivial comp.
  Graph g = MakeGraph(8, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0},
                          {2, 5}, {5, 6}, {6, 7}});
  std::vector<NodeId> all(8);
  for (NodeId v = 0; v < 8; ++v) all[v] = v;
  RunDistributionCheck(g, all, 5, 150000);
}

TEST(GenBcDistribution, TargetSamplingConditionalOnSource) {
  // Direct check of SampleTarget's conditional law in the dominant-r case.
  Graph g = MakeGraph(7, {{0, 1}, {1, 2}, {2, 0},
                          {0, 3}, {3, 4}, {4, 0},
                          {0, 5}, {5, 6}, {6, 0}});
  IspIndex isp(g);
  // Component of triangle {0,1,2}: find it via edge (1,2).
  uint32_t comp = kInvalidComp;
  auto nbr = g.neighbors(1);
  for (size_t i = 0; i < nbr.size(); ++i) {
    if (nbr[i] == 2) comp = isp.bcc().arc_component[g.offset(1) + i];
  }
  ASSERT_NE(comp, kInvalidComp);
  // r values in this component: r(0) = 5 (itself + both other triangles),
  // r(1) = r(2) = 1.
  EXPECT_EQ(isp.OutReach(comp, 0), 5u);
  EXPECT_EQ(isp.OutReach(comp, 1), 1u);
  // The triangle's members are {0, 1, 2}, so its member indices, which
  // SampleTarget takes and returns, equal the node ids.
  ASSERT_TRUE(std::ranges::equal(isp.bcc().component_nodes[comp],
                                 std::vector<NodeId>{0, 1, 2}));
  // Conditional on s = 0: t ∈ {1,2} each with prob 1/2.
  Rng rng(6);
  int ones = 0;
  constexpr int kDraws = 60000;
  for (int i = 0; i < kDraws; ++i) {
    NodeId t = isp.SampleTarget(comp, 0, &rng);
    ASSERT_TRUE(t == 1 || t == 2);
    ones += (t == 1);
  }
  EXPECT_NEAR(ones / static_cast<double>(kDraws), 0.5, 0.02);
  // Conditional on s = 1: t ∈ {0 (r=5), 2 (r=1)} with probs 5/6, 1/6.
  int zeros = 0;
  for (int i = 0; i < kDraws; ++i) {
    NodeId t = isp.SampleTarget(comp, 1, &rng);
    ASSERT_TRUE(t == 0 || t == 2);
    zeros += (t == 0);
  }
  EXPECT_NEAR(zeros / static_cast<double>(kDraws), 5.0 / 6.0, 0.02);
}

// Golden sample streams. Gen_bc's output for a fixed seed is part of the
// determinism contract (served bytes are a pure function of the seed), so
// a kernel change that only makes sampling faster must leave these digests
// alone. Each digest folds 2,000 draws and the Rng's next draw after them,
// so a change in how many random numbers a draw consumes shows too.
constexpr int kGoldenDraws = 2000;

// FNV-1a over the hit lists of SampleApproxLosses with every node a
// target: each draw's hits are its path's inner nodes, in path order.
uint64_t ApproxLossStreamDigest(const Graph& g, uint64_t seed) {
  IspIndex isp(g);
  std::vector<NodeId> all(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) all[v] = v;
  SaphyraBcOptions options;
  auto problem = MakeSaphyraBcSamplingProblem(isp, all, options);
  Rng rng(seed);
  Fnv1a64 h;
  std::vector<uint32_t> hits;
  for (int i = 0; i < kGoldenDraws; ++i) {
    hits.clear();
    problem->SampleApproxLosses(&rng, &hits);
    h.UpdateValue(static_cast<uint64_t>(hits.size()));
    for (uint32_t x : hits) h.UpdateValue(x);
  }
  h.UpdateValue(rng.Next());
  return h.Digest();
}

// FNV-1a over the multistage draw (Algorithm 2, no rejection) of the whole
// ISP space: every path's nodes, σ_st and length, alternating the
// bidirectional and unidirectional strategies.
uint64_t KernelStreamDigest(const Graph& g, uint64_t seed) {
  IspIndex isp(g);
  std::vector<NodeId> all(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) all[v] = v;
  PersonalizedSpace space(isp, all);
  PathSampler sampler(g, &isp.views());
  Rng rng(seed);
  Fnv1a64 h;
  PathSample path;
  for (int i = 0; i < kGoldenDraws; ++i) {
    const SamplingStrategy strategy = i % 2 == 0
                                          ? SamplingStrategy::kBidirectional
                                          : SamplingStrategy::kUnidirectional;
    const uint32_t c = space.SampleComponent(&rng);
    const NodeId s = isp.SampleSource(c, &rng);
    const NodeId t = isp.SampleTarget(c, s, &rng);
    EXPECT_TRUE(sampler.SampleRestrictedPath(c, s, t, strategy, &rng, &path));
    h.UpdateValue(c);
    h.UpdateValue(static_cast<uint64_t>(path.nodes.size()));
    for (NodeId v : path.nodes) h.UpdateValue(v);
    h.UpdateValue(path.num_paths);
    h.UpdateValue(path.length);
  }
  h.UpdateValue(rng.Next());
  return h.Digest();
}

Graph GoldenSocialGraph() { return BaCoreWithLeaves(300, 300, 11); }
Graph GoldenRoadGraph() { return RoadGrid(24, 24, 0.8, 13).graph; }

TEST(GenBcGoldenStream, ApproxLossesSocial) {
  EXPECT_EQ(ApproxLossStreamDigest(GoldenSocialGraph(), 21),
            16049274538243907970ULL);
}

TEST(GenBcGoldenStream, ApproxLossesRoad) {
  EXPECT_EQ(ApproxLossStreamDigest(GoldenRoadGraph(), 22),
            13295307494812954908ULL);
}

TEST(GenBcGoldenStream, KernelSocial) {
  EXPECT_EQ(KernelStreamDigest(GoldenSocialGraph(), 23),
            6625237654003446669ULL);
}

TEST(GenBcGoldenStream, KernelRoad) {
  EXPECT_EQ(KernelStreamDigest(GoldenRoadGraph(), 24),
            11072268100609402253ULL);
}

}  // namespace
}  // namespace saphyra
