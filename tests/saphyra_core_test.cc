#include "core/saphyra.h"

#include <cmath>

#include <gtest/gtest.h>

#include "metrics/rank.h"

namespace saphyra {
namespace {

/// Synthetic hypothesis-ranking problem with known expected risks: the
/// sample space is an infinite stream of coin bundles; hypothesis i incurs
/// loss 1 with probability approx_risks_[i] on a sample of the approximate
/// subspace. Exact risks and lambda_hat are injected directly.
class SyntheticProblem : public HypothesisRankingProblem {
 public:
  SyntheticProblem(std::vector<double> exact, std::vector<double> approx,
                   double lambda_hat, double vc)
      : exact_(std::move(exact)),
        approx_(std::move(approx)),
        lambda_hat_(lambda_hat),
        vc_(vc) {}

  size_t num_hypotheses() const override { return exact_.size(); }

  double ComputeExactRisks(std::vector<double>* exact_risks) override {
    *exact_risks = exact_;
    return lambda_hat_;
  }

  void SampleApproxLosses(Rng* rng, std::vector<uint32_t>* hits) override {
    ++samples_;
    for (size_t i = 0; i < approx_.size(); ++i) {
      if (rng->Bernoulli(approx_[i])) hits->push_back(i);
    }
  }

  double VcDimension() const override { return vc_; }

  uint64_t samples() const { return samples_; }

  /// True expected risk of hypothesis i: R = ℓ̂ + λ·R̃.
  double TrueRisk(size_t i) const {
    return exact_[i] + (1.0 - lambda_hat_) * approx_[i];
  }

 private:
  std::vector<double> exact_;
  std::vector<double> approx_;
  double lambda_hat_;
  double vc_;
  uint64_t samples_ = 0;
};

TEST(RunSaphyra, ZeroHypotheses) {
  SyntheticProblem p({}, {}, 0.0, 1.0);
  SaphyraOptions opts;
  SaphyraResult res = RunSaphyra(&p, opts);
  EXPECT_TRUE(res.combined_risks.empty());
}

TEST(RunSaphyra, PureExactSubspaceSkipsSampling) {
  SyntheticProblem p({0.2, 0.5}, {0.0, 0.0}, 1.0, 1.0);
  SaphyraOptions opts;
  SaphyraResult res = RunSaphyra(&p, opts);
  EXPECT_EQ(p.samples(), 0u);
  EXPECT_DOUBLE_EQ(res.combined_risks[0], 0.2);
  EXPECT_DOUBLE_EQ(res.combined_risks[1], 0.5);
}

TEST(RunSaphyra, EstimatesWithinEpsilon) {
  SyntheticProblem p({0.05, 0.0, 0.12}, {0.1, 0.3, 0.02}, 0.4, 2.0);
  SaphyraOptions opts;
  opts.epsilon = 0.05;
  opts.delta = 0.05;
  opts.seed = 7;
  SaphyraResult res = RunSaphyra(&p, opts);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(res.combined_risks[i], p.TrueRisk(i), opts.epsilon)
        << "hypothesis " << i;
  }
  EXPECT_GT(res.samples_used, 0u);
  EXPECT_LE(res.samples_used, res.max_samples);
}

TEST(RunSaphyra, LambdaScalingReducesSampleBudget) {
  // Same approximate risks, but a heavier exact subspace => larger eps' and
  // a smaller worst-case budget (Lemma 7's lambda^2 factor).
  SyntheticProblem light({0.0}, {0.3}, 0.1, 4.0);
  SyntheticProblem heavy({0.27}, {0.3}, 0.9, 4.0);
  SaphyraOptions opts;
  opts.epsilon = 0.02;
  SaphyraResult res_light = RunSaphyra(&light, opts);
  SaphyraResult res_heavy = RunSaphyra(&heavy, opts);
  EXPECT_LT(res_heavy.max_samples, res_light.max_samples);
  EXPECT_NEAR(static_cast<double>(res_light.max_samples) /
                  static_cast<double>(res_heavy.max_samples),
              (0.9 * 0.9) / (0.1 * 0.1), 2.0);
}

TEST(RunSaphyra, EarlyStopOnLowVariance) {
  // All approximate risks ~0: Bernstein converges far before the VC cap.
  SyntheticProblem p({0.01, 0.02}, {0.001, 0.0}, 0.2, 8.0);
  SaphyraOptions opts;
  opts.epsilon = 0.01;
  opts.delta = 0.01;
  SaphyraResult res = RunSaphyra(&p, opts);
  EXPECT_TRUE(res.stopped_early);
  EXPECT_LT(res.samples_used, res.max_samples);
}

TEST(RunSaphyra, HighVarianceRunsToCap) {
  // Risk 0.5 has maximal variance: the Bernstein check cannot beat the VC
  // cap, so the loop runs to Nmax.
  SyntheticProblem p({0.0}, {0.5}, 0.0, 0.0);
  SaphyraOptions opts;
  opts.epsilon = 0.05;
  opts.delta = 0.1;
  SaphyraResult res = RunSaphyra(&p, opts);
  EXPECT_EQ(res.samples_used, res.max_samples);
}

TEST(RunSaphyra, DeterministicForSeed) {
  SaphyraOptions opts;
  opts.seed = 42;
  opts.epsilon = 0.05;
  SyntheticProblem p1({0.1}, {0.2}, 0.3, 2.0);
  SyntheticProblem p2({0.1}, {0.2}, 0.3, 2.0);
  SaphyraResult a = RunSaphyra(&p1, opts);
  SaphyraResult b = RunSaphyra(&p2, opts);
  EXPECT_EQ(a.samples_used, b.samples_used);
  EXPECT_DOUBLE_EQ(a.combined_risks[0], b.combined_risks[0]);
}

TEST(RunSaphyra, CombinedRiskIsExactPlusScaledApprox) {
  SyntheticProblem p({0.07, 0.01}, {0.2, 0.4}, 0.5, 2.0);
  SaphyraOptions opts;
  opts.epsilon = 0.05;
  SaphyraResult res = RunSaphyra(&p, opts);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(res.combined_risks[i],
                res.exact_risks[i] + res.lambda * res.approx_risks[i],
                1e-12);
  }
}

// Statistical guarantee sweep: across many seeds, the fraction of runs with
// any hypothesis outside +-epsilon must be well below delta (the bound is
// conservative, so in practice ~0 violations).
TEST(RunSaphyra, EpsilonDeltaGuaranteeHolds) {
  const double eps = 0.05, delta = 0.1;
  int violations = 0;
  const int trials = 40;
  for (int t = 0; t < trials; ++t) {
    SyntheticProblem p({0.02, 0.0, 0.1}, {0.15, 0.45, 0.05}, 0.3, 3.0);
    SaphyraOptions opts;
    opts.epsilon = eps;
    opts.delta = delta;
    opts.seed = 1000 + t;
    SaphyraResult res = RunSaphyra(&p, opts);
    for (size_t i = 0; i < 3; ++i) {
      if (std::abs(res.combined_risks[i] - p.TrueRisk(i)) >= eps) {
        ++violations;
        break;
      }
    }
  }
  EXPECT_LE(violations, static_cast<int>(trials * delta));
}

TEST(RunSaphyra, RankingQualityBeatsNoise) {
  // 10 hypotheses with closely spaced risks; with a generous exact part the
  // combined ranking should align with the truth.
  std::vector<double> exact(10), approx(10);
  for (int i = 0; i < 10; ++i) {
    exact[i] = 0.001 * i;
    approx[i] = 0.002 * i;
  }
  SyntheticProblem p(exact, approx, 0.8, 2.0);
  SaphyraOptions opts;
  opts.epsilon = 0.01;
  opts.seed = 5;
  SaphyraResult res = RunSaphyra(&p, opts);
  std::vector<double> truth(10);
  for (int i = 0; i < 10; ++i) truth[i] = p.TrueRisk(i);
  EXPECT_GT(SpearmanCorrelation(truth, res.combined_risks), 0.9);
}

}  // namespace
}  // namespace saphyra
