#include "stats/empirical_bernstein.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace saphyra {

double EmpiricalBernsteinEpsilon(uint64_t n, double delta0,
                                 double sample_variance) {
  SAPHYRA_CHECK(n >= 2);
  SAPHYRA_CHECK(delta0 > 0.0 && delta0 < 1.0);
  SAPHYRA_CHECK(sample_variance >= 0.0);
  const double log_term = std::log(2.0 / delta0);
  const double nn = static_cast<double>(n);
  return std::sqrt(2.0 * sample_variance * log_term / nn) +
         7.0 * log_term / (3.0 * (nn - 1.0));
}

double BernoulliSampleVariance(uint64_t ones, uint64_t n) {
  SAPHYRA_CHECK(n >= 2);
  SAPHYRA_CHECK(ones <= n);
  const double nn = static_cast<double>(n);
  return static_cast<double>(ones) * static_cast<double>(n - ones) /
         (nn * (nn - 1.0));
}

double SolveDeltaForEpsilon(uint64_t n, double sample_variance,
                            double target_epsilon) {
  SAPHYRA_CHECK(n >= 2);
  SAPHYRA_CHECK(target_epsilon > 0.0);
  // The bound is monotone *decreasing* in δ0 (ln(2/δ0) shrinks), so the
  // easiest point is the cap δ0 = 0.5. Below the threshold δ* the bound
  // exceeds the target; we return δ* — the minimal failure probability the
  // hypothesis needs to meet target_epsilon at this sample size.
  constexpr double kCap = 0.5;
  if (EmpiricalBernsteinEpsilon(n, kCap, sample_variance) > target_epsilon) {
    return 0.0;  // infeasible at any allowed δ0
  }
  double lo = 1e-300;
  if (EmpiricalBernsteinEpsilon(n, lo, sample_variance) <= target_epsilon) {
    return lo;  // feasible even with a vanishing failure probability
  }
  // Invariant: lo infeasible, hi feasible. Bisect on log δ0 for 100 steps;
  // the result is the bit pattern this exact trajectory ends on, so the
  // shortcuts below may skip work but never move a step.
  //
  // Shortcut 1, the closed-form threshold. With L = ln(2/δ0), the bound
  // is a·√L + b·L (a = √(2V/n), b = 7/(3(n−1))), which meets ε at
  // √L* = 2ε / (a + √(a² + 4bε)); a midpoint m = ln δ0 is feasible iff
  // m ≥ m* = ln 2 − L*. The bound's relative slope in m is at least
  // 1/(2L) ≥ 1/1400 over the bracket, so a midpoint τ = 1e-6·max(1, |m*|)
  // away from m* puts the bound at least 2e-7 (relative) off ε — far
  // beyond the ~1e-15 rounding of either m* or one evaluation of the
  // bound — and is decided by the comparison alone. Only midpoints inside the τ band, and every
  // midpoint if m* is not finite, evaluate the bound itself.
  //
  // Shortcut 2, the fixed point. Once both endpoints are adjacent doubles
  // and each was set by this loop, the midpoint rounds to one of them and
  // gets the decision it got before (the decision is a pure function of
  // the midpoint), so every remaining step leaves the bracket unchanged.
  // The initial endpoints are excluded: lo's check above ran at 1e-300,
  // not at exp(log(1e-300)).
  const double nn = static_cast<double>(n);
  const double a2 = 2.0 * sample_variance / nn;
  const double b = 7.0 / (3.0 * (nn - 1.0));
  const double x = 2.0 * target_epsilon /
                   (std::sqrt(a2) + std::sqrt(a2 + 4.0 * b * target_epsilon));
  const double m_star = std::log(2.0) - x * x;
  const double tau = 1e-6 * std::max(1.0, std::abs(m_star));
  double log_lo = std::log(lo), log_hi = std::log(kCap);
  bool lo_set = false, hi_set = false;
  for (int iter = 0; iter < 100; ++iter) {
    if (lo_set && hi_set && std::nextafter(log_lo, log_hi) == log_hi) break;
    double mid = 0.5 * (log_lo + log_hi);
    bool feasible;
    if (mid > m_star + tau) {
      feasible = true;
    } else if (mid < m_star - tau) {
      feasible = false;
    } else {
      feasible = EmpiricalBernsteinEpsilon(n, std::exp(mid),
                                           sample_variance) <= target_epsilon;
    }
    if (feasible) {
      log_hi = mid;
      hi_set = true;
    } else {
      log_lo = mid;
      lo_set = true;
    }
  }
  return std::exp(log_hi);
}

}  // namespace saphyra
