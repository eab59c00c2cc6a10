#include "bc/exact_subspace.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bc/brandes.h"
#include "bicomp_test_util.h"
#include "graph/generators.h"
#include "test_util.h"
#include "util/logging.h"
#include "util/rng.h"

namespace saphyra {
namespace {

using testing::AllShortestPaths;
using testing::BaCoreWithLeaves;
using testing::GeneratorSweep;
using testing::MakeGraph;
using testing::PaperFig2Graph;
using testing::RandomConnectedGraph;

// Oracle: enumerate the personalized ISP space explicitly and compute the
// exact-subspace weight and risks by definition (Eq. 29).
struct ExactOracle {
  std::vector<double> exact_risks;
  double lambda_hat = 0.0;
};

ExactOracle EnumerateExactSubspace(const PersonalizedSpace& space) {
  const IspIndex& isp = space.isp();
  const Graph& g = isp.graph();
  ExactOracle out;
  out.exact_risks.assign(space.targets().size(), 0.0);
  double ge = isp.gamma() * space.eta();
  if (ge <= 0.0) return out;
  for (uint32_t c : space.component_ids()) {
    const auto& nodes = isp.bcc().component_nodes[c];
    std::function<bool(EdgeIndex)> arc_ok = [&](EdgeIndex e) {
      return isp.bcc().arc_component[e] == c;
    };
    for (NodeId s : nodes) {
      for (NodeId t : nodes) {
        if (s == t) continue;
        auto paths = AllShortestPaths(g, s, t, &arc_ok);
        double p_path = isp.PairMass(c, s, t) / ge / paths.size();
        for (const auto& path : paths) {
          if (path.size() != 3) continue;  // only length-2 paths
          int32_t h = space.HypothesisIndex(path[1]);
          if (h < 0) continue;
          out.lambda_hat += p_path;
          out.exact_risks[h] += p_path;
        }
      }
    }
  }
  return out;
}

TEST(ExactSubspace, EmptyTargets) {
  Graph g = PaperFig2Graph();
  IspIndex isp(g);
  PersonalizedSpace space(isp, {});
  ExactSubspaceResult res = ComputeExactSubspace(space);
  EXPECT_TRUE(res.exact_risks.empty());
  EXPECT_DOUBLE_EQ(res.lambda_hat, 0.0);
}

TEST(ExactSubspace, PaperFig2MatchesOracle) {
  Graph g = PaperFig2Graph();
  IspIndex isp(g);
  // Mixed targets: pentagon inner node, cutpoint, triangle node.
  PersonalizedSpace space(isp, {1, 3, 9});
  ExactSubspaceResult res = ComputeExactSubspace(space);
  ExactOracle oracle = EnumerateExactSubspace(space);
  EXPECT_NEAR(res.lambda_hat, oracle.lambda_hat, 1e-12);
  for (size_t h = 0; h < res.exact_risks.size(); ++h) {
    EXPECT_NEAR(res.exact_risks[h], oracle.exact_risks[h], 1e-12)
        << "hypothesis " << h;
  }
}

class ExactSubspaceRandomized : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExactSubspaceRandomized, MatchesEnumerationOracle) {
  Rng rng(GetParam());
  NodeId n = 8 + static_cast<NodeId>(rng.UniformInt(16));
  Graph g = RandomConnectedGraph(n, rng.UniformDouble() * 0.2,
                                 GetParam() * 131 + 17);
  IspIndex isp(g);
  // Random subset of ~1/3 of nodes.
  std::vector<NodeId> targets;
  for (NodeId v = 0; v < n; ++v) {
    if (rng.Bernoulli(0.33)) targets.push_back(v);
  }
  if (targets.empty()) targets.push_back(0);
  PersonalizedSpace space(isp, targets);
  ExactSubspaceResult res = ComputeExactSubspace(space);
  ExactOracle oracle = EnumerateExactSubspace(space);
  EXPECT_NEAR(res.lambda_hat, oracle.lambda_hat, 1e-10) << "seed "
                                                        << GetParam();
  for (size_t h = 0; h < res.exact_risks.size(); ++h) {
    EXPECT_NEAR(res.exact_risks[h], oracle.exact_risks[h], 1e-10)
        << "hypothesis " << h << " seed " << GetParam();
  }
}

TEST_P(ExactSubspaceRandomized, WholeNetworkAsTargets) {
  Graph g = RandomConnectedGraph(14, 0.15, GetParam() + 71);
  IspIndex isp(g);
  std::vector<NodeId> all(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) all[v] = v;
  PersonalizedSpace space(isp, all);
  ExactSubspaceResult res = ComputeExactSubspace(space);
  ExactOracle oracle = EnumerateExactSubspace(space);
  EXPECT_NEAR(res.lambda_hat, oracle.lambda_hat, 1e-10);
  for (size_t h = 0; h < res.exact_risks.size(); ++h) {
    EXPECT_NEAR(res.exact_risks[h], oracle.exact_risks[h], 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactSubspaceRandomized,
                         ::testing::Range<uint64_t>(0, 12));

TEST(ExactSubspace, LambdaHatIsAProbability) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Graph g = RandomConnectedGraph(30, 0.1, seed);
    IspIndex isp(g);
    std::vector<NodeId> targets;
    Rng rng(seed);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (rng.Bernoulli(0.2)) targets.push_back(v);
    }
    if (targets.empty()) targets.push_back(1);
    PersonalizedSpace space(isp, targets);
    ExactSubspaceResult res = ComputeExactSubspace(space);
    EXPECT_GE(res.lambda_hat, 0.0);
    EXPECT_LT(res.lambda_hat, 1.0);  // d=1 paths always remain outside X̂
    for (double r : res.exact_risks) {
      EXPECT_GE(r, 0.0);
      EXPECT_LE(r, res.lambda_hat + 1e-12);
    }
  }
}

// Lemma 19: any target with positive sampling-space risk (i.e. positive
// bc beyond its break-point mass) has a strictly positive exact risk.
TEST(ExactSubspace, Lemma19NoFalseZeros) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Graph g = RandomConnectedGraph(20, 0.12, seed * 3 + 1);
    IspIndex isp(g);
    std::vector<double> bc = BrandesBetweenness(g);
    std::vector<NodeId> all(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) all[v] = v;
    PersonalizedSpace space(isp, all);
    ExactSubspaceResult res = ComputeExactSubspace(space);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      double sampling_mass = bc[v] - isp.bca(v);
      if (sampling_mass > 1e-12) {
        EXPECT_GT(res.exact_risks[v], 0.0) << "node " << v;
      }
    }
  }
}

TEST(ExactSubspace, TreeHasEmptyExactSubspace) {
  // Trees have only bridge components: no intra-component 2-hop paths.
  Graph g = RandomTree(30, 9);
  IspIndex isp(g);
  std::vector<NodeId> all(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) all[v] = v;
  PersonalizedSpace space(isp, all);
  ExactSubspaceResult res = ComputeExactSubspace(space);
  EXPECT_DOUBLE_EQ(res.lambda_hat, 0.0);
  for (double r : res.exact_risks) EXPECT_DOUBLE_EQ(r, 0.0);
}

// --- bitwise differential against the full-scan routine ---------------------

// The Exact_bc routine before middles outside A were counted from the
// smaller side: every source scans the whole adjacency of every neighbor.
// Its λ̂ sums in first-discovery order over (position of the middle in
// N(s), position of t in N(middle)); the production routine must give the
// same bits.
struct ScanResult {
  std::vector<double> exact_risks;
  double lambda_hat = 0.0;
};

ScanResult FullScanExactSubspace(const PersonalizedSpace& space) {
  const IspIndex& isp = space.isp();
  const Graph& g = isp.graph();
  const auto& bcc = isp.bcc();
  const NodeId n = g.num_nodes();
  const size_t k = space.targets().size();
  ScanResult out;
  out.exact_risks.assign(k, 0.0);
  const double denom = isp.total_weight() * space.eta();
  if (denom <= 0.0) return out;

  std::vector<uint8_t> in_b(n, 0);
  std::vector<NodeId> sources;
  for (NodeId a : space.targets()) {
    for (NodeId w : g.neighbors(a)) {
      if (!in_b[w]) {
        in_b[w] = 1;
        sources.push_back(w);
      }
    }
  }
  constexpr uint32_t kNoStamp = static_cast<uint32_t>(-1);
  std::vector<uint32_t> nbr_stamp(n, kNoStamp);
  std::vector<uint32_t> pair_stamp(n, kNoStamp);
  std::vector<uint32_t> sigma_all(n, 0);
  std::vector<uint32_t> sigma_a(n, 0);
  std::vector<uint32_t> pair_comp(n, 0);
  std::vector<NodeId> found;
  double lambda_scaled = 0.0;
  std::vector<double> exact_scaled(k, 0.0);

  for (uint32_t sidx = 0; sidx < sources.size(); ++sidx) {
    const NodeId s = sources[sidx];
    for (NodeId w : g.neighbors(s)) nbr_stamp[w] = sidx;
    nbr_stamp[s] = sidx;
    found.clear();
    const EdgeIndex s_base = g.offset(s);
    const auto s_nbr = g.neighbors(s);
    for (size_t i = 0; i < s_nbr.size(); ++i) {
      const NodeId v = s_nbr[i];
      const uint32_t c1 = bcc.arc_component[s_base + i];
      const bool v_in_a = space.HypothesisIndex(v) >= 0;
      const EdgeIndex v_base = g.offset(v);
      const auto v_nbr = g.neighbors(v);
      for (size_t j = 0; j < v_nbr.size(); ++j) {
        const NodeId t = v_nbr[j];
        if (nbr_stamp[t] == sidx) continue;
        if (bcc.arc_component[v_base + j] != c1) continue;
        if (pair_stamp[t] != sidx) {
          pair_stamp[t] = sidx;
          sigma_all[t] = 0;
          sigma_a[t] = 0;
          pair_comp[t] = c1;
          found.push_back(t);
        }
        SAPHYRA_CHECK(pair_comp[t] == c1);
        ++sigma_all[t];
        if (v_in_a) ++sigma_a[t];
      }
    }
    for (NodeId t : found) {
      if (sigma_a[t] == 0) continue;
      const uint32_t c = pair_comp[t];
      const double q_scaled =
          static_cast<double>(isp.OutReach(c, s)) *
          static_cast<double>(isp.OutReach(c, t));
      lambda_scaled += q_scaled * static_cast<double>(sigma_a[t]) /
                       static_cast<double>(sigma_all[t]);
    }
    for (size_t i = 0; i < s_nbr.size(); ++i) {
      const NodeId v = s_nbr[i];
      const int32_t h = space.HypothesisIndex(v);
      if (h < 0) continue;
      const uint32_t c1 = bcc.arc_component[s_base + i];
      const double r_s = static_cast<double>(isp.OutReach(c1, s));
      const EdgeIndex v_base = g.offset(v);
      const auto v_nbr = g.neighbors(v);
      for (size_t j = 0; j < v_nbr.size(); ++j) {
        const NodeId t = v_nbr[j];
        if (nbr_stamp[t] == sidx) continue;
        if (bcc.arc_component[v_base + j] != c1) continue;
        exact_scaled[h] += r_s * static_cast<double>(isp.OutReach(c1, t)) /
                           static_cast<double>(sigma_all[t]);
      }
    }
  }
  out.lambda_hat = lambda_scaled / denom;
  for (size_t h = 0; h < k; ++h) out.exact_risks[h] = exact_scaled[h] / denom;
  return out;
}

void ExpectSameBitsAsFullScan(const IspIndex& isp,
                              const std::vector<NodeId>& targets,
                              const std::string& what) {
  const PersonalizedSpace space(isp, targets);
  const ExactSubspaceResult got = ComputeExactSubspace(space);
  const ScanResult want = FullScanExactSubspace(space);
  EXPECT_EQ(std::memcmp(&got.lambda_hat, &want.lambda_hat, sizeof(double)),
            0)
      << what << ": λ̂ " << got.lambda_hat << " vs " << want.lambda_hat;
  ASSERT_EQ(got.exact_risks.size(), want.exact_risks.size()) << what;
  if (want.exact_risks.empty()) return;  // memcmp must not see null data()
  EXPECT_EQ(std::memcmp(got.exact_risks.data(), want.exact_risks.data(),
                        want.exact_risks.size() * sizeof(double)),
            0)
      << what << ": risks differ";
}

/// The target sets every graph is checked under, by name.
std::vector<std::pair<std::string, std::vector<NodeId>>> TargetSets(
    const IspIndex& isp, uint64_t seed) {
  const Graph& g = isp.graph();
  const NodeId n = g.num_nodes();
  Rng rng(seed);
  auto random_subset = [&](NodeId size) {
    std::vector<NodeId> perm(n);
    for (NodeId v = 0; v < n; ++v) perm[v] = v;
    for (NodeId i = 0; i < std::min(size, n); ++i) {
      std::swap(perm[i], perm[i + rng.UniformInt(n - i)]);
    }
    perm.resize(std::min(size, n));
    return perm;
  };
  std::vector<NodeId> by_degree(n);
  for (NodeId v = 0; v < n; ++v) by_degree[v] = v;
  std::stable_sort(by_degree.begin(), by_degree.end(),
                   [&](NodeId a, NodeId b) {
                     return g.degree(a) > g.degree(b);
                   });
  by_degree.resize(std::min(n, std::max<NodeId>(1, n / 20)));
  std::vector<NodeId> cutpoints, leaves, all;
  for (NodeId v = 0; v < n; ++v) {
    if (isp.bcc().is_cutpoint[v]) cutpoints.push_back(v);
    if (g.degree(v) == 1) leaves.push_back(v);
    all.push_back(v);
  }
  return {{"small_random", random_subset(4)},
          {"large_random", random_subset(n / 2)},
          {"hubs", by_degree},
          {"cutpoints", cutpoints},
          {"leaves", leaves},
          {"all", all}};
}

void ExpectSameBitsUnderEveryTargetSet(const Graph& g, uint64_t seed,
                                       const std::string& name) {
  const IspIndex isp(g);
  for (const auto& [set_name, targets] : TargetSets(isp, seed)) {
    ExpectSameBitsAsFullScan(isp, targets, name + "/" + set_name);
  }
}

TEST(ExactSubspaceBitwise, GeneratorSweepMatchesFullScan) {
  uint64_t seed = 1;
  for (const testing::GeneratorCase& c : GeneratorSweep()) {
    ExpectSameBitsUnderEveryTargetSet(c.graph, seed++, c.name);
  }
}

TEST(ExactSubspaceBitwise, SocialAndRoadShapesMatchFullScan) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    ExpectSameBitsUnderEveryTargetSet(BaCoreWithLeaves(600, 900, seed), seed,
                                      "ba_leaves_s" + std::to_string(seed));
    ExpectSameBitsUnderEveryTargetSet(
        RoadGrid(30, 25, 0.8, seed * 7).graph, seed,
        "road_s" + std::to_string(seed));
  }
}

// Source 0's neighbors 1, 2 and 3 are outside A and come before the
// A-middle 4 in N(0). Targets 5..12 hang off 4 on a ring, and the middles
// outside A reach 6, 7 and 9..12, so most targets are first discovered
// through a middle outside A: λ̂'s summation order differs from the order
// the A-middle lists them in. Pendant leaves on the targets (t − 3 on t)
// make the pair masses distinct, and σ_st of 3 or 4 makes the terms
// inexact; with these counts summing in A-middle order changes λ̂'s last
// bit.
TEST(ExactSubspaceBitwise, MiddleOutsideAAheadOfTheFirstAMiddle) {
  std::vector<std::pair<NodeId, NodeId>> edges = {
      {0, 1},  {0, 2},  {0, 3},  {0, 4},  {1, 9}, {1, 10}, {1, 11},
      {1, 12}, {2, 7},  {2, 8},  {2, 11}, {2, 12}, {3, 6}, {3, 7},
      {3, 9},  {3, 11}, {12, 5}};
  for (NodeId t = 5; t <= 12; ++t) edges.push_back({4, t});
  for (NodeId t = 5; t < 12; ++t) edges.push_back({t, t + 1});
  NodeId next = 13;
  for (NodeId t = 5; t <= 12; ++t) {
    for (NodeId leaf = 0; leaf < t - 3; ++leaf) {
      edges.push_back({t, next++});
    }
  }
  const Graph g = MakeGraph(next, edges);
  const IspIndex isp(g);
  ExpectSameBitsAsFullScan(isp, {4}, "A={4}");
  ExpectSameBitsAsFullScan(isp, {4, 2}, "A={4,2}");
  const PersonalizedSpace space(isp, {4});
  const ExactOracle oracle = EnumerateExactSubspace(space);
  EXPECT_NEAR(ComputeExactSubspace(space).lambda_hat, oracle.lambda_hat,
              1e-12);
}

TEST(InExactSubspace, ChecksLengthAndMiddle) {
  Graph g = PaperFig2Graph();
  IspIndex isp(g);
  PersonalizedSpace space(isp, {1});
  EXPECT_TRUE(InExactSubspace(space, {0, 1, 2}));
  EXPECT_FALSE(InExactSubspace(space, {0, 4, 3}));   // middle not in A
  EXPECT_FALSE(InExactSubspace(space, {0, 1}));      // length 1
  EXPECT_FALSE(InExactSubspace(space, {4, 0, 1, 2}));  // length 3
}

}  // namespace
}  // namespace saphyra
