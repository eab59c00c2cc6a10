// Tests of the shared progressive sampling scheduler: the determinism
// contract (output bitwise identical across thread counts and wave
// batching, for every frontend), the checkpoint schedule, and the
// individual stopping rules.

#include "core/progressive_sampler.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/abra.h"
#include "baselines/kadabra.h"
#include "bc/brandes.h"
#include "bc/saphyra_bc.h"
#include "graph/generators.h"
#include "test_util.h"

namespace saphyra {
namespace {

using testing::RandomConnectedGraph;

/// Clonable 0/1 problem with known risks (Bernoulli losses).
class BernoulliProblem : public HypothesisRankingProblem {
 public:
  explicit BernoulliProblem(std::vector<double> risks)
      : risks_(std::move(risks)) {}
  size_t num_hypotheses() const override { return risks_.size(); }
  double ComputeExactRisks(std::vector<double>* exact) override {
    exact->assign(risks_.size(), 0.0);
    return 0.0;
  }
  void SampleApproxLosses(Rng* rng, std::vector<uint32_t>* hits) override {
    for (size_t i = 0; i < risks_.size(); ++i) {
      if (rng->Bernoulli(risks_[i])) hits->push_back(i);
    }
  }
  double VcDimension() const override { return 2.0; }
  std::unique_ptr<HypothesisRankingProblem> CloneForSampling() override {
    return std::make_unique<BernoulliProblem>(risks_);
  }

 private:
  std::vector<double> risks_;
};

/// Clonable weighted problem: hypothesis i's loss is a scaled uniform
/// draw, so the fixed-point moment accumulation is exercised.
class WeightedProblem : public HypothesisRankingProblem {
 public:
  explicit WeightedProblem(size_t k) : k_(k) {}
  size_t num_hypotheses() const override { return k_; }
  double ComputeExactRisks(std::vector<double>* exact) override {
    exact->assign(k_, 0.0);
    return 0.0;
  }
  bool has_weighted_losses() const override { return true; }
  void SampleApproxLosses(Rng*, std::vector<uint32_t>*) override {
    FAIL() << "weighted problem must be sampled through the weighted hook";
  }
  void SampleWeightedLosses(Rng* rng,
                            std::vector<WeightedHit>* hits) override {
    for (size_t i = 0; i < k_; ++i) {
      hits->push_back({static_cast<uint32_t>(i),
                       rng->UniformDouble() / static_cast<double>(i + 1)});
    }
  }
  double VcDimension() const override { return 2.0; }
  std::unique_ptr<HypothesisRankingProblem> CloneForSampling() override {
    return std::make_unique<WeightedProblem>(k_);
  }

 private:
  size_t k_;
};

// ---------------------------------------------------------------------------
// Determinism stress: ranking output bitwise equal across thread counts
// {1, 2, 8} × wave schedules {coarse, fine} × traversal policy (hybrid
// kernel on/off) and across repeated runs.
// ---------------------------------------------------------------------------

struct ExecutionVariant {
  uint32_t num_threads;
  uint64_t max_wave;
  TraversalPolicy traversal;
};

const ExecutionVariant kVariants[] = {
    // coarse waves (one per checkpoint), hybrid kernel off / on
    {1, 0, TraversalPolicy::kTopDown},
    {2, 0, TraversalPolicy::kTopDown},
    {8, 0, TraversalPolicy::kTopDown},
    {1, 0, TraversalPolicy::kHybrid},
    {2, 0, TraversalPolicy::kHybrid},
    {8, 0, TraversalPolicy::kHybrid},
    // fine waves (at most 17 samples), hybrid kernel off / on
    {1, 17, TraversalPolicy::kTopDown},
    {2, 17, TraversalPolicy::kTopDown},
    {8, 17, TraversalPolicy::kTopDown},
    {1, 17, TraversalPolicy::kHybrid},
    {2, 17, TraversalPolicy::kHybrid},
    {8, 17, TraversalPolicy::kHybrid},
};

TEST(ProgressiveDeterminism, SaphyraBcBitwiseAcrossThreadsAndWaves) {
  Graph g = BarabasiAlbert(150, 2, 31);
  IspIndex isp(g);
  const std::vector<NodeId> targets = {2, 9, 23, 47, 88, 120};
  std::vector<double> reference;
  uint64_t reference_rejected = 0;
  for (const ExecutionVariant& v : kVariants) {
    SaphyraBcOptions opts;
    opts.epsilon = 0.03;
    opts.seed = 7;
    opts.num_threads = v.num_threads;
    opts.max_wave = v.max_wave;
    opts.traversal = v.traversal;
    SaphyraBcResult res = RunSaphyraBc(isp, targets, opts);
    // Repeat run with the same variant: bitwise identical.
    SaphyraBcResult res2 = RunSaphyraBc(isp, targets, opts);
    EXPECT_EQ(res.bc, res2.bc) << "repeat run diverged";
    EXPECT_EQ(res.samples_used, res2.samples_used);
    if (reference.empty()) {
      reference = res.bc;
      reference_rejected = res.rejected_samples;
    } else {
      EXPECT_EQ(res.bc, reference)
          << "threads=" << v.num_threads << " max_wave=" << v.max_wave
          << " traversal=" << TraversalPolicyName(v.traversal);
      // Rejections are counted across every sampling worker (the clones
      // share the counter), so the diagnostic is execution-invariant too.
      EXPECT_EQ(res.rejected_samples, reference_rejected);
    }
  }
}

TEST(ProgressiveDeterminism, KadabraBitwiseAcrossThreadsAndWaves) {
  Graph g = RandomConnectedGraph(60, 0.08, 13);
  std::vector<double> reference;
  uint64_t reference_samples = 0;
  for (const ExecutionVariant& v : kVariants) {
    KadabraOptions opts;
    opts.epsilon = 0.08;
    opts.seed = 3;
    opts.num_threads = v.num_threads;
    opts.max_wave = v.max_wave;
    opts.traversal = v.traversal;
    KadabraResult res = RunKadabra(g, opts);
    if (reference.empty()) {
      reference = res.bc;
      reference_samples = res.samples_used;
    } else {
      EXPECT_EQ(res.bc, reference)
          << "threads=" << v.num_threads << " max_wave=" << v.max_wave
          << " traversal=" << TraversalPolicyName(v.traversal);
      EXPECT_EQ(res.samples_used, reference_samples);
    }
  }
}

TEST(ProgressiveDeterminism, AbraWeightedBitwiseAcrossThreadsAndWaves) {
  // ABRA exercises the fixed-point moment path: double accumulation would
  // break bitwise equality here, integer accumulation cannot.
  Graph g = RandomConnectedGraph(50, 0.08, 5);
  std::vector<double> reference;
  for (const ExecutionVariant& v : kVariants) {
    AbraOptions opts;
    opts.epsilon = 0.08;
    opts.seed = 11;
    opts.num_threads = v.num_threads;
    opts.max_wave = v.max_wave;
    AbraResult res = RunAbra(g, opts);
    if (reference.empty()) {
      reference = res.bc;
    } else {
      EXPECT_EQ(res.bc, reference)
          << "threads=" << v.num_threads << " max_wave=" << v.max_wave;
    }
  }
}

TEST(ProgressiveDeterminism, TopKModeBitwiseAcrossThreadsAndWaves) {
  Graph g = BarabasiAlbert(100, 3, 17);
  IspIndex isp(g);
  std::vector<NodeId> all(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) all[v] = v;
  std::vector<double> reference;
  for (const ExecutionVariant& v : kVariants) {
    SaphyraBcOptions opts;
    opts.epsilon = 0.05;
    opts.seed = 19;
    opts.top_k = 5;
    opts.num_threads = v.num_threads;
    opts.max_wave = v.max_wave;
    opts.traversal = v.traversal;
    SaphyraBcResult res = RunSaphyraBc(isp, all, opts);
    if (reference.empty()) {
      reference = res.bc;
    } else {
      EXPECT_EQ(res.bc, reference)
          << "threads=" << v.num_threads << " max_wave=" << v.max_wave;
    }
  }
}

// ---------------------------------------------------------------------------
// Engine-level wave independence (the striped quota rule).
// ---------------------------------------------------------------------------

TEST(SampleEngineStriping, MergedCountsIndependentOfBatching) {
  BernoulliProblem p1({0.2, 0.5, 0.05});
  BernoulliProblem p2({0.2, 0.5, 0.05});
  Rng r1(23), r2(23);
  SampleEngine one_shot(&p1, 4, &r1, nullptr);
  SampleEngine batched(&p2, 4, &r2, nullptr);
  SampleStats a, b;
  one_shot.DrawAccumulate(0, 1000);
  one_shot.SnapshotStats(1000, &a);
  uint64_t n = 0;
  for (uint64_t target : {3u, 64u, 65u, 700u, 1000u}) {
    n = batched.DrawAccumulate(n, target);
  }
  batched.SnapshotStats(n, &b);
  EXPECT_EQ(a.counts, b.counts);
}

TEST(SampleEngineStriping, WeightedStatsIndependentOfBatching) {
  WeightedProblem p1(4), p2(4);
  Rng r1(29), r2(29);
  SampleEngine one_shot(&p1, 4, &r1, nullptr);
  SampleEngine batched(&p2, 4, &r2, nullptr);
  SampleStats a, b;
  one_shot.DrawAccumulate(0, 500);
  one_shot.SnapshotStats(500, &a);
  uint64_t n = 0;
  for (uint64_t target : {7u, 128u, 200u, 500u}) {
    n = batched.DrawAccumulate(n, target);
  }
  batched.SnapshotStats(n, &b);
  ASSERT_TRUE(a.weighted);
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.sums, b.sums);          // bitwise: fixed-point accumulation
  EXPECT_EQ(a.sum_squares, b.sum_squares);
}

// ---------------------------------------------------------------------------
// Schedule and stopping rules.
// ---------------------------------------------------------------------------

TEST(ProgressiveSchedule, PlannedChecksMatchesExecutedChecks) {
  BernoulliProblem p({0.5});  // max variance: never stops early
  ProgressiveOptions opts;
  opts.initial_samples = 32;
  opts.max_samples = 1000;
  opts.growth = 2.0;
  Rng rng(1);
  ProgressiveSampler sampler(&p, opts, &rng);
  FixedBudgetRule rule;
  ProgressiveResult run = sampler.Run(&rule);
  EXPECT_EQ(run.samples_used, 1000u);
  EXPECT_FALSE(run.stopped_early);
  EXPECT_EQ(run.checks_used, PlannedChecks(32, 1000, 2.0));
}

TEST(ProgressiveSchedule, PlannedChecksHandlesDegenerateGeometry) {
  EXPECT_EQ(PlannedChecks(32, 32, 2.0), 1u);
  EXPECT_EQ(PlannedChecks(64, 32, 2.0), 1u);   // initial above the cap
  EXPECT_EQ(PlannedChecks(32, 64, 2.0), 2u);
  EXPECT_GE(PlannedChecks(2, 1u << 20, 1.1), 10u);
}

TEST(ProgressiveSchedule, FineWavesReachEveryCheckpoint) {
  BernoulliProblem p({0.5});
  ProgressiveOptions opts;
  opts.initial_samples = 10;
  opts.max_samples = 100;
  opts.max_wave = 3;  // many waves per checkpoint
  Rng rng(2);
  ProgressiveSampler sampler(&p, opts, &rng);
  FixedBudgetRule rule;
  ProgressiveResult run = sampler.Run(&rule);
  EXPECT_EQ(run.samples_used, 100u);
  EXPECT_GT(run.waves_used, run.checks_used);
}

TEST(StoppingRules, EpsilonGuaranteeStopsEarlyOnLowVariance) {
  BernoulliProblem p({0.001, 0.0});
  ProgressiveOptions opts;
  opts.initial_samples = 256;
  opts.max_samples = 1u << 20;
  Rng rng(3);
  ProgressiveSampler sampler(&p, opts, &rng);
  EpsilonGuaranteeRule rule(0.05, 0.05, 2);
  ProgressiveResult run = sampler.Run(&rule);
  EXPECT_TRUE(run.stopped_early);
  EXPECT_LT(run.samples_used, opts.max_samples);
  EXPECT_LE(rule.last_worst_epsilon(), 0.05);
}

TEST(StoppingRules, EpsilonGuaranteeRunsToCapOnHighVariance) {
  BernoulliProblem p({0.5});
  ProgressiveOptions opts;
  opts.initial_samples = 32;
  opts.max_samples = 2000;
  Rng rng(4);
  ProgressiveSampler sampler(&p, opts, &rng);
  EpsilonGuaranteeRule rule(0.01, 0.05, 1);
  ProgressiveResult run = sampler.Run(&rule);
  EXPECT_FALSE(run.stopped_early);
  EXPECT_EQ(run.samples_used, 2000u);
}

TEST(StoppingRules, TopKSeparationStopsOnWellSeparatedRisks) {
  BernoulliProblem p({0.9, 0.85, 0.05, 0.02, 0.01});
  ProgressiveOptions opts;
  opts.initial_samples = 64;
  opts.max_samples = 1u << 22;
  Rng rng(5);
  ProgressiveSampler sampler(&p, opts, &rng);
  TopKSeparationRule rule(2, 0.05, {}, {}, 1.0);
  ProgressiveResult run = sampler.Run(&rule);
  EXPECT_TRUE(run.stopped_early);
  EXPECT_GE(rule.last_gap(), 0.0);
}

TEST(StoppingRules, TopKCoveringAllHypothesesRunsToTheCap) {
  // "Separation" of a top-k that covers every hypothesis is vacuous, and
  // stopping at the first check would hand back minimally-sampled
  // estimates with no guarantee. The rule must fall through to the VC
  // cap (frontends route such requests to ε-mode before this point).
  BernoulliProblem p({0.4, 0.6});
  ProgressiveOptions opts;
  opts.initial_samples = 16;
  opts.max_samples = 2048;
  Rng rng(6);
  ProgressiveSampler sampler(&p, opts, &rng);
  TopKSeparationRule rule(2, 0.05, {}, {}, 1.0);
  ProgressiveResult run = sampler.Run(&rule);
  EXPECT_FALSE(run.stopped_early);
  EXPECT_EQ(run.samples_used, 2048u);
}

TEST(StoppingRules, DegenerateTopKFallsBackToEpsilonMode) {
  // Frontend-level routing: top_k >= num nodes is a full ranking request.
  Graph g = RandomConnectedGraph(20, 0.1, 3);
  KadabraOptions eps_mode;
  eps_mode.epsilon = 0.1;
  eps_mode.seed = 2;
  KadabraOptions degenerate = eps_mode;
  degenerate.top_k = g.num_nodes() + 5;
  KadabraResult a = RunKadabra(g, eps_mode);
  KadabraResult b = RunKadabra(g, degenerate);
  EXPECT_EQ(a.bc, b.bc);
  EXPECT_EQ(a.samples_used, b.samples_used);
}

TEST(StoppingRules, TopKOffsetsChangeTheSelectedSet) {
  // Sampled means alone rank hypothesis 0 first; a large exact offset on
  // hypothesis 1 must flip the separation decision to {1}.
  BernoulliProblem p({0.4, 0.1});
  ProgressiveOptions opts;
  opts.initial_samples = 512;
  opts.max_samples = 1u << 22;
  Rng rng(7);
  ProgressiveSampler sampler(&p, opts, &rng);
  TopKSeparationRule rule(1, 0.05, {}, {0.0, 5.0}, 1.0);
  ProgressiveResult run = sampler.Run(&rule);
  ASSERT_TRUE(run.stopped_early);
  // With the offset, hypothesis 1's lower bound (≥ 5.0) dominates
  // hypothesis 0's upper bound (≤ 0.4 + width) from the first check.
  EXPECT_EQ(run.samples_used, 512u);
}

}  // namespace
}  // namespace saphyra
