#include "baselines/abra.h"

#include <cmath>

#include <gtest/gtest.h>

#include "bc/brandes.h"
#include "graph/generators.h"
#include "test_util.h"

namespace saphyra {
namespace {

using testing::MakeGraph;
using testing::PaperFig2Graph;
using testing::RandomConnectedGraph;

TEST(Abra, EstimatesWithinEpsilonOnFig2) {
  Graph g = PaperFig2Graph();
  std::vector<double> truth = BrandesBetweenness(g);
  SamplingOptions opts;
  opts.epsilon = 0.05;
  opts.delta = 0.05;
  opts.seed = 1;
  AbraResult res = RunAbra(g, opts);
  ASSERT_EQ(res.bc.size(), g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_NEAR(res.bc[v], truth[v], opts.epsilon) << "node " << v;
  }
}

class AbraRandomized : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AbraRandomized, WithinEpsilonOnRandomGraphs) {
  Graph g = RandomConnectedGraph(30, 0.1, GetParam());
  std::vector<double> truth = BrandesBetweenness(g);
  SamplingOptions opts;
  opts.epsilon = 0.05;
  opts.delta = 0.05;
  opts.seed = GetParam() + 10;
  AbraResult res = RunAbra(g, opts);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_NEAR(res.bc[v], truth[v], opts.epsilon);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AbraRandomized,
                         ::testing::Range<uint64_t>(0, 6));

TEST(Abra, DeterministicForSeed) {
  Graph g = BarabasiAlbert(60, 2, 3);
  SamplingOptions opts;
  opts.epsilon = 0.1;
  opts.seed = 4;
  AbraResult a = RunAbra(g, opts);
  AbraResult b = RunAbra(g, opts);
  EXPECT_EQ(a.samples_used, b.samples_used);
  EXPECT_EQ(a.bc, b.bc);
}

TEST(Abra, StopsAtOrBeforeCap) {
  Graph g = BarabasiAlbert(80, 2, 5);
  SamplingOptions opts;
  opts.epsilon = 0.1;
  AbraResult res = RunAbra(g, opts);
  EXPECT_GT(res.samples_used, 0u);
  EXPECT_GE(res.epochs, 1u);
  EXPECT_GT(res.final_bound, 0.0);
}

TEST(Abra, ValuesAreProbabilities) {
  Graph g = RandomConnectedGraph(40, 0.07, 9);
  SamplingOptions opts;
  opts.epsilon = 0.1;
  AbraResult res = RunAbra(g, opts);
  for (double x : res.bc) {
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
  }
}

TEST(Abra, DisconnectedGraphPairsWithoutPaths) {
  Graph g = MakeGraph(8, {{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {6, 7}});
  std::vector<double> truth = BrandesBetweenness(g);
  SamplingOptions opts;
  opts.epsilon = 0.06;
  opts.seed = 2;
  AbraResult res = RunAbra(g, opts);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_NEAR(res.bc[v], truth[v], opts.epsilon);
  }
}

TEST(Abra, TinyGraphEdgeCases) {
  SamplingOptions opts;
  opts.epsilon = 0.2;
  Graph g2 = MakeGraph(2, {{0, 1}});
  AbraResult res = RunAbra(g2, opts);
  EXPECT_NEAR(res.bc[0], 0.0, 1e-12);
  EXPECT_NEAR(res.bc[1], 0.0, 1e-12);
}

}  // namespace
}  // namespace saphyra
