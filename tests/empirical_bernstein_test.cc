#include "stats/empirical_bernstein.h"

#include <bit>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace saphyra {
namespace {

TEST(EmpiricalBernstein, MatchesClosedForm) {
  // eps = sqrt(2 * var * ln(2/d) / n) + 7 ln(2/d) / (3(n-1)).
  double n = 1000, d = 0.05, var = 0.04;
  double log_term = std::log(2.0 / d);
  double expected = std::sqrt(2.0 * var * log_term / n) +
                    7.0 * log_term / (3.0 * (n - 1.0));
  EXPECT_NEAR(EmpiricalBernsteinEpsilon(1000, d, var), expected, 1e-12);
}

TEST(EmpiricalBernstein, DecreasesInSampleSize) {
  double prev = EmpiricalBernsteinEpsilon(10, 0.05, 0.1);
  for (uint64_t n : {20, 40, 100, 1000, 10000}) {
    double cur = EmpiricalBernsteinEpsilon(n, 0.05, 0.1);
    EXPECT_LT(cur, prev);
    prev = cur;
  }
}

TEST(EmpiricalBernstein, IncreasesAsDeltaShrinks) {
  double loose = EmpiricalBernsteinEpsilon(100, 0.2, 0.1);
  double tight = EmpiricalBernsteinEpsilon(100, 0.001, 0.1);
  EXPECT_GT(tight, loose);
}

TEST(EmpiricalBernstein, IncreasesInVariance) {
  EXPECT_LT(EmpiricalBernsteinEpsilon(100, 0.05, 0.01),
            EmpiricalBernsteinEpsilon(100, 0.05, 0.25));
}

TEST(EmpiricalBernstein, ZeroVarianceLeavesOnlyRangeTerm) {
  double d = 0.1;
  double expected = 7.0 * std::log(2.0 / d) / (3.0 * 99.0);
  EXPECT_NEAR(EmpiricalBernsteinEpsilon(100, d, 0.0), expected, 1e-12);
}

TEST(BernoulliSampleVariance, ClosedForm) {
  // ones=3, n=10: 3*7/(10*9).
  EXPECT_NEAR(BernoulliSampleVariance(3, 10), 21.0 / 90.0, 1e-12);
  EXPECT_DOUBLE_EQ(BernoulliSampleVariance(0, 10), 0.0);
  EXPECT_DOUBLE_EQ(BernoulliSampleVariance(10, 10), 0.0);
}

TEST(BernoulliSampleVariance, MaximizedAtHalf) {
  double half = BernoulliSampleVariance(50, 100);
  for (uint64_t ones : {0, 10, 25, 75, 90, 100}) {
    EXPECT_LE(BernoulliSampleVariance(ones, 100), half);
  }
}

TEST(BernoulliSampleVariance, MatchesUStatisticDefinition) {
  // Var(z) = 1/(N(N-1)) Σ_{j1<j2} (z_{j1} - z_{j2})^2 for 0/1 values with
  // c ones: the sum has c(N-c) unit terms.
  uint64_t n = 17, ones = 6;
  double expected = static_cast<double>(ones * (n - ones)) /
                    (static_cast<double>(n) * (n - 1));
  EXPECT_NEAR(BernoulliSampleVariance(ones, n), expected, 1e-12);
}

TEST(SolveDelta, RoundTripsThroughEpsilon) {
  for (double var : {0.0, 0.01, 0.1, 0.25}) {
    for (double target : {0.5, 0.1, 0.05}) {
      double d = SolveDeltaForEpsilon(10000, var, target);
      if (d > 0.0 && d < 0.5) {
        EXPECT_LE(EmpiricalBernsteinEpsilon(10000, d, var), target + 1e-9);
        // The solved delta is the largest feasible: a slightly larger delta
        // may never *reduce* the epsilon below the target boundary.
        EXPECT_GE(EmpiricalBernsteinEpsilon(10000, d * 0.5, var),
                  EmpiricalBernsteinEpsilon(10000, d, var));
      }
    }
  }
}

TEST(SolveDelta, ReturnsTinyWhenTrivial) {
  // Huge n, tiny variance: the target is met even with vanishing delta, so
  // the minimal required failure probability is essentially zero.
  double d = SolveDeltaForEpsilon(1000000, 0.0, 0.1);
  EXPECT_GT(d, 0.0);
  EXPECT_LE(EmpiricalBernsteinEpsilon(1000000, d, 0.0), 0.1);
  EXPECT_LT(d, 1e-100);
}

TEST(SolveDelta, ReturnsZeroWhenInfeasible) {
  // Tiny n, large variance, absurd target.
  EXPECT_DOUBLE_EQ(SolveDeltaForEpsilon(2, 0.25, 1e-9), 0.0);
}

// The 100-step log-bisection SolveDeltaForEpsilon ran before its closed-form
// threshold and fixed-point exit, kept verbatim as the reference.
double ReferenceSolveDelta(uint64_t n, double var, double target) {
  if (EmpiricalBernsteinEpsilon(n, 0.5, var) > target) return 0.0;
  double lo = 1e-300;
  if (EmpiricalBernsteinEpsilon(n, lo, var) <= target) return lo;
  double log_lo = std::log(lo), log_hi = std::log(0.5);
  for (int iter = 0; iter < 100; ++iter) {
    double mid = 0.5 * (log_lo + log_hi);
    if (EmpiricalBernsteinEpsilon(n, std::exp(mid), var) <= target) {
      log_hi = mid;
    } else {
      log_lo = mid;
    }
  }
  return std::exp(log_hi);
}

// A seeded sweep over sample sizes, variances and targets, weighted toward
// the edges: V = 0, n = 2, huge n, targets on the δ0 = 0.5 feasibility
// edge and thresholds near 1e-300 and near 0.5. Every answer must carry the
// reference's exact bits.
TEST(SolveDelta, BitIdenticalToReferenceBisection) {
  Rng rng(0x5eed);
  constexpr int kCases = 120000;
  int bisected = 0;
  for (int i = 0; i < kCases; ++i) {
    const uint64_t n_kind = rng.UniformInt(4);
    uint64_t n = 2;
    if (n_kind == 1) {
      n += rng.UniformInt(100);
    } else if (n_kind == 2) {
      n += static_cast<uint64_t>(std::pow(1e12, rng.UniformDouble()));
    } else if (n_kind == 3) {
      n = (uint64_t{1} << 62) + rng.UniformInt(1000);
    }
    const uint64_t var_kind = rng.UniformInt(4);
    double var = 0.0;
    if (var_kind == 1) {
      var = BernoulliSampleVariance(rng.UniformInt(n + 1), n);
    } else if (var_kind == 2) {
      var = 0.5 * rng.UniformDouble();
    } else if (var_kind == 3) {
      var = std::exp(-700.0 * rng.UniformDouble());
    }
    // δ0 whose bound becomes the target, or a free target.
    double target;
    const uint64_t mode = rng.UniformInt(6);
    if (mode == 0) {
      target = std::exp(std::log(1e-6) + rng.UniformDouble() * std::log(1e7));
    } else {
      double d0;
      if (mode == 1) {
        d0 = 0.5;  // the feasibility edge itself
      } else if (mode == 2) {
        d0 = 1e-300;  // the lower end of the bracket
      } else if (mode == 3) {
        d0 = 0.5 * (1.0 - std::exp(-40.0 * rng.UniformDouble()));
      } else if (mode == 4) {
        d0 = 1e-300 * (1.0 + std::exp(-40.0 * rng.UniformDouble()) * 1e3);
      } else {
        d0 = std::exp(std::log(1e-300) * rng.UniformDouble()) * 0.5;
      }
      target = EmpiricalBernsteinEpsilon(n, d0, var);
      // Step a few ulps either way so both sides of every edge show up.
      const int steps = static_cast<int>(rng.UniformInt(7)) - 3;
      for (int k = 0; k < steps; ++k) {
        target = std::nextafter(target, std::numeric_limits<double>::max());
      }
      for (int k = 0; k > steps; --k) target = std::nextafter(target, 0.0);
    }
    const double want = ReferenceSolveDelta(n, var, target);
    const double got = SolveDeltaForEpsilon(n, var, target);
    ASSERT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
        << "n=" << n << " var=" << var << " target=" << target;
    bisected += want > 1e-300 && want <= 0.5;
  }
  // The sweep must mostly reach the bisection, not the early returns.
  EXPECT_GT(bisected, kCases / 3);
}

// Statistical coverage property: the two-sided empirical Bernstein bound at
// confidence 1-2δ0 must cover the true mean in well over 1-2δ0 of trials.
TEST(EmpiricalBernstein, CoverageOnBernoulliSamples) {
  Rng rng(2024);
  const double p = 0.3;
  const double delta0 = 0.05;
  const uint64_t n = 400;
  int covered = 0;
  const int trials = 500;
  for (int t = 0; t < trials; ++t) {
    uint64_t ones = 0;
    for (uint64_t i = 0; i < n; ++i) ones += rng.Bernoulli(p);
    double mean = static_cast<double>(ones) / n;
    double eps = EmpiricalBernsteinEpsilon(
        n, delta0, BernoulliSampleVariance(ones, n));
    covered += std::abs(mean - p) <= eps;
  }
  // Expect at least 1 - 2*delta0 = 90% coverage (typically ~100%).
  EXPECT_GE(covered, static_cast<int>(trials * 0.9));
}

}  // namespace
}  // namespace saphyra
