#include "stats/delta_allocation.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "stats/empirical_bernstein.h"
#include "util/rng.h"

namespace saphyra {
namespace {

TEST(DeltaAllocation, SumsToBudget) {
  std::vector<double> vars = {0.0, 0.01, 0.1, 0.25};
  double budget = 0.01;
  auto deltas = AllocateDeltas(vars, 0.05, budget, 64, 100000);
  ASSERT_EQ(deltas.size(), vars.size());
  double total = 0.0;
  for (double d : deltas) total += 2.0 * d;
  EXPECT_NEAR(total, budget, 1e-12);
}

TEST(DeltaAllocation, AllPositive) {
  std::vector<double> vars = {0.25, 0.25, 0.0};
  auto deltas = AllocateDeltas(vars, 0.01, 0.005, 64, 1 << 20);
  for (double d : deltas) EXPECT_GT(d, 0.0);
}

TEST(DeltaAllocation, HighVarianceGetsLargerShare) {
  // A low-variance hypothesis meets eps' even with a tiny delta, so the
  // budget concentrates on the hard, high-variance hypothesis.
  std::vector<double> vars = {0.001, 0.25};
  auto deltas = AllocateDeltas(vars, 0.05, 0.01, 128, 1 << 22);
  EXPECT_GT(deltas[1], deltas[0]);
}

TEST(DeltaAllocation, EqualVariancesEqualShares) {
  std::vector<double> vars(5, 0.04);
  auto deltas = AllocateDeltas(vars, 0.05, 0.02, 64, 1 << 20);
  for (size_t i = 1; i < deltas.size(); ++i) {
    EXPECT_NEAR(deltas[i], deltas[0], 1e-12);
  }
}

TEST(DeltaAllocation, EmptyInput) {
  auto deltas = AllocateDeltas({}, 0.05, 0.01, 64, 1024);
  EXPECT_TRUE(deltas.empty());
}

TEST(DeltaAllocation, SingleHypothesisGetsHalfBudget) {
  auto deltas = AllocateDeltas({0.1}, 0.05, 0.01, 64, 1 << 20);
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_NEAR(deltas[0], 0.005, 1e-12);
}

TEST(DeltaAllocation, InfeasibleVarianceStillCovered) {
  // eps' so small nothing is feasible even at n_max: fall back to positive
  // allocations that still sum to the budget.
  std::vector<double> vars = {0.25, 0.25};
  auto deltas = AllocateDeltas(vars, 1e-8, 0.01, 64, 128);
  double total = 0.0;
  for (double d : deltas) {
    EXPECT_GT(d, 0.0);
    total += 2.0 * d;
  }
  EXPECT_NEAR(total, 0.01, 1e-12);
}

TEST(DeltaAllocation, DeltasNeverExceedHalf) {
  auto deltas = AllocateDeltas({0.0, 0.0, 0.0}, 0.5, 0.9, 64, 1024);
  for (double d : deltas) EXPECT_LE(d, 0.5);
}

// AllocateDeltas as it ran before the feasibility-only doubling rounds:
// every round solved every hypothesis's δ by the 100-step log-bisection.
// Both are kept verbatim as the reference.
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

std::vector<double> ReferenceAllocateDeltas(const std::vector<double>& vars,
                                            double epsilon_prime,
                                            double delta_budget, uint64_t n0,
                                            uint64_t n_max) {
  const size_t k = vars.size();
  std::vector<double> deltas(k, 0.0);
  if (k == 0) return deltas;
  uint64_t n_star = n0;
  std::vector<double> need(k, 0.0);
  for (;;) {
    bool all_feasible = true;
    for (size_t i = 0; i < k; ++i) {
      need[i] = ReferenceSolveDelta(n_star, vars[i], epsilon_prime);
      if (need[i] <= 0.0) all_feasible = false;
    }
    if (all_feasible || n_star >= n_max) break;
    n_star = std::min(n_star * 2, n_max);
  }
  double min_positive = 1.0;
  for (double d : need) {
    if (d > 0.0) min_positive = std::min(min_positive, d);
  }
  for (double& d : need) {
    if (d <= 0.0) d = min_positive * 1e-3;
  }
  double total = 0.0;
  for (double d : need) total += 2.0 * d;
  double scale = delta_budget / total;
  for (size_t i = 0; i < k; ++i) deltas[i] = need[i] * scale;
  return deltas;
}

// A seeded sweep of pilot outcomes (Bernoulli variances as the pilot
// produces them, plus zero and free variances), targets and doubling
// schedules, over 10^5 hypotheses in all: every δ_i must carry the
// reference's exact bits, whichever round the schedule stops in.
TEST(DeltaAllocation, BitIdenticalToReferenceAllRounds) {
  Rng rng(0xde17a);
  size_t hypotheses = 0;
  int allocations = 0;
  while (hypotheses < 100000) {
    const size_t k = 1 + rng.UniformInt(48);
    const uint64_t pilot = 2 + rng.UniformInt(2000);
    std::vector<double> vars(k);
    for (double& v : vars) {
      const uint64_t kind = rng.UniformInt(3);
      if (kind == 0) {
        v = 0.0;
      } else if (kind == 1) {
        v = BernoulliSampleVariance(rng.UniformInt(pilot + 1), pilot);
      } else {
        v = 0.5 * rng.UniformDouble();
      }
    }
    const uint64_t n0 = 2 + rng.UniformInt(500);
    const uint64_t n_max = n0 << rng.UniformInt(14);
    // ε′ from the δ0 = 0.5 edge of one hypothesis at one of the schedule's
    // sizes, nudged a few ulps, or drawn freely.
    double eps_prime;
    if (rng.UniformInt(2) == 0) {
      const uint64_t n_edge = std::min(n_max, n0 << rng.UniformInt(14));
      eps_prime = EmpiricalBernsteinEpsilon(n_edge, 0.5,
                                            vars[rng.UniformInt(k)]);
      const int steps = static_cast<int>(rng.UniformInt(5)) - 2;
      for (int s = 0; s < steps; ++s) {
        eps_prime = std::nextafter(eps_prime, 1.0);
      }
      for (int s = 0; s > steps; --s) {
        eps_prime = std::nextafter(eps_prime, 0.0);
      }
    } else {
      eps_prime = std::exp(std::log(1e-3) * rng.UniformDouble());
    }
    const double budget = 0.001 + 0.1 * rng.UniformDouble();
    const auto want = ReferenceAllocateDeltas(vars, eps_prime, budget, n0,
                                              n_max);
    const auto got = AllocateDeltas(vars, eps_prime, budget, n0, n_max);
    ASSERT_EQ(got.size(), k);
    for (size_t i = 0; i < k; ++i) {
      ASSERT_EQ(std::bit_cast<uint64_t>(got[i]),
                std::bit_cast<uint64_t>(want[i]))
          << "allocation " << allocations << " hypothesis " << i;
    }
    hypotheses += k;
    ++allocations;
  }
}

}  // namespace
}  // namespace saphyra
