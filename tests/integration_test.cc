#include <cmath>

#include <gtest/gtest.h>

#include "baselines/abra.h"
#include "baselines/kadabra.h"
#include "bc/brandes.h"
#include "bc/saphyra_bc.h"
#include "bc/vc_bc.h"
#include "graph/connectivity.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "metrics/rank.h"
#include "test_util.h"

namespace saphyra {
namespace {

using testing::PaperFig2Graph;
using testing::RandomConnectedGraph;

std::vector<NodeId> RandomSubset(const Graph& g, size_t k, uint64_t seed) {
  Rng rng(seed);
  std::vector<NodeId> all(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) all[v] = v;
  for (size_t i = 0; i < k && i < all.size(); ++i) {
    size_t j = i + rng.UniformInt(all.size() - i);
    std::swap(all[i], all[j]);
  }
  all.resize(std::min(k, all.size()));
  return all;
}

// End-to-end pipeline of the paper's evaluation: generate a network, rank a
// random subset with all three estimators, compare rank quality against the
// exact ground truth. SaPHyRa must not lose to the baselines.
TEST(Integration, SubsetRankingPipeline) {
  Graph g = BarabasiAlbert(300, 3, 2024);
  IspIndex isp(g);
  std::vector<double> truth = ParallelBrandesBetweenness(g, 4);
  std::vector<NodeId> targets = RandomSubset(g, 40, 7);
  std::vector<double> truth_sub(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) truth_sub[i] = truth[targets[i]];

  const double eps = 0.05;
  SaphyraBcOptions sopts;
  sopts.epsilon = eps;
  sopts.seed = 1;
  SaphyraBcResult sres = RunSaphyraBc(isp, targets, sopts);

  SamplingOptions aopts;
  aopts.epsilon = eps;
  aopts.seed = 2;
  AbraResult ares = RunAbra(g, aopts);
  std::vector<double> abra_sub(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) abra_sub[i] = ares.bc[targets[i]];

  KadabraOptions kopts;
  kopts.epsilon = eps;
  kopts.seed = 3;
  KadabraResult kres = RunKadabra(g, kopts);
  std::vector<double> kad_sub(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) kad_sub[i] = kres.bc[targets[i]];

  // Estimation quality: everything within eps of truth.
  for (size_t i = 0; i < targets.size(); ++i) {
    EXPECT_NEAR(sres.bc[i], truth_sub[i], eps);
    EXPECT_NEAR(abra_sub[i], truth_sub[i], eps);
    EXPECT_NEAR(kad_sub[i], truth_sub[i], eps);
  }
  // Ranking quality: SaPHyRa at least matches both baselines (the paper's
  // central claim, Fig. 4).
  double rs = SpearmanCorrelation(truth_sub, sres.bc);
  double ra = SpearmanCorrelation(truth_sub, abra_sub);
  double rk = SpearmanCorrelation(truth_sub, kad_sub);
  EXPECT_GE(rs, ra - 0.05);
  EXPECT_GE(rs, rk - 0.05);
  // And SaPHyRa produces no false zeros (Lemma 19).
  EXPECT_EQ(ClassifyZeros(truth_sub, sres.bc).false_zeros, 0u);
}

TEST(Integration, RoadNetworkAreaCaseStudy) {
  // Miniature of the paper's USA-road case study (Fig. 7): rank the nodes
  // of a geographic window.
  RoadNetwork road = RoadGrid(24, 24, 0.85, 99);
  IspIndex isp(road.graph);
  std::vector<double> truth = ParallelBrandesBetweenness(road.graph, 4);
  auto area = NodesInRectangle(road, 2, 2, 9, 9);
  ASSERT_GE(area.size(), 10u);
  SaphyraBcOptions opts;
  opts.epsilon = 0.03;
  opts.seed = 5;
  SaphyraBcResult res = RunSaphyraBc(isp, area, opts);
  std::vector<double> truth_sub(area.size());
  for (size_t i = 0; i < area.size(); ++i) truth_sub[i] = truth[area[i]];
  for (size_t i = 0; i < area.size(); ++i) {
    EXPECT_NEAR(res.bc[i], truth_sub[i], opts.epsilon);
  }
  EXPECT_LT(res.eta, 1.0);  // personalization really kicked in
  EXPECT_GT(SpearmanCorrelation(truth_sub, res.bc), 0.7);
}

TEST(Integration, SnapRoundTripThenRank) {
  Graph g = BarabasiAlbert(120, 2, 17);
  std::string path = ::testing::TempDir() + "/saphyra_integration.txt";
  ASSERT_TRUE(SaveSnapEdgeList(g, path).ok());
  Graph loaded;
  ASSERT_TRUE(LoadSnapEdgeList(path, &loaded).ok());
  ASSERT_EQ(loaded.num_edges(), g.num_edges());
  IspIndex isp(loaded);
  std::vector<double> truth = BrandesBetweenness(loaded);
  SaphyraBcOptions opts;
  opts.epsilon = 0.05;
  SaphyraBcResult res = RunSaphyraBc(isp, RandomSubset(loaded, 15, 3), opts);
  EXPECT_EQ(res.bc.size(), 15u);
}

TEST(Integration, VcBoundsOrderedAsInTableI) {
  // Table I: the personalized bound <= full-network SaPHyRa bound, and on
  // bicomponent-rich graphs the SaPHyRa bound <= the Riondato bound.
  RoadNetwork road = RoadGrid(30, 30, 0.8, 31);
  IspIndex isp(road.graph);
  double riondato = RiondatoVcBound(road.graph);
  double full = FullNetworkVcBound(isp);
  auto local_nodes = NodesInRectangle(road, 0, 0, 5, 5);
  ASSERT_GE(local_nodes.size(), 2u);
  PersonalizedSpace space(isp, local_nodes);
  VcBcBounds personalized = ComputePersonalizedVcBounds(space);
  EXPECT_LE(full, riondato + 1.0);  // usually strictly smaller
  EXPECT_LE(personalized.vc_bound, full + 1e-9);
  EXPECT_GT(personalized.vc_bound, 0.0);
}

TEST(Integration, BsBoundDominatesBruteForceBs) {
  // BS(A): max number of targets that are inner nodes of one shortest path.
  Graph g = RandomConnectedGraph(18, 0.12, 47);
  IspIndex isp(g);
  Rng rng(48);
  std::vector<NodeId> targets;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (rng.Bernoulli(0.4)) targets.push_back(v);
  }
  if (targets.size() < 2) targets = {0, 1};
  PersonalizedSpace space(isp, targets);
  VcBcBounds bounds = ComputePersonalizedVcBounds(space);
  // Brute force over the PISP space.
  uint64_t bs = 0;
  for (uint32_t c : space.component_ids()) {
    const auto& nodes = isp.bcc().component_nodes[c];
    std::function<bool(EdgeIndex)> arc_ok = [&](EdgeIndex e) {
      return isp.bcc().arc_component[e] == c;
    };
    for (NodeId s : nodes) {
      for (NodeId t : nodes) {
        if (s == t) continue;
        for (const auto& p : testing::AllShortestPaths(g, s, t, &arc_ok)) {
          uint64_t inner_targets = 0;
          for (size_t i = 1; i + 1 < p.size(); ++i) {
            if (space.HypothesisIndex(p[i]) >= 0) ++inner_targets;
          }
          bs = std::max(bs, inner_targets);
        }
      }
    }
  }
  EXPECT_GE(bounds.bs_bound, static_cast<double>(bs));
}

TEST(Integration, FullPipelineOnFig2SmallestCase) {
  Graph g = PaperFig2Graph();
  IspIndex isp(g);
  std::vector<double> truth = BrandesBetweenness(g);
  SaphyraBcOptions opts;
  opts.epsilon = 0.02;
  opts.seed = 11;
  SaphyraBcResult res = RunSaphyraBcFull(isp, opts);
  EXPECT_GT(SpearmanCorrelation(truth, res.bc), 0.95);
}

TEST(Integration, SharedIspIndexAcrossManySubsets) {
  // The paper ranks 1000 subsets per network; the index must be reusable.
  Graph g = BarabasiAlbert(150, 2, 53);
  IspIndex isp(g);
  std::vector<double> truth = BrandesBetweenness(g);
  for (int trial = 0; trial < 10; ++trial) {
    SaphyraBcOptions opts;
    opts.epsilon = 0.06;
    opts.seed = 100 + trial;
    std::vector<NodeId> targets = RandomSubset(g, 10, trial);
    SaphyraBcResult res = RunSaphyraBc(isp, targets, opts);
    for (size_t i = 0; i < targets.size(); ++i) {
      ASSERT_NEAR(res.bc[i], truth[targets[i]], opts.epsilon);
    }
  }
}

}  // namespace
}  // namespace saphyra
