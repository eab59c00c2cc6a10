#include "stats/delta_allocation.h"

#include <algorithm>

#include "stats/empirical_bernstein.h"
#include "util/logging.h"

namespace saphyra {

std::vector<double> AllocateDeltas(const std::vector<double>& pilot_variances,
                                   double epsilon_prime, double delta_budget,
                                   uint64_t n0, uint64_t n_max) {
  SAPHYRA_CHECK(delta_budget > 0.0);
  SAPHYRA_CHECK(n0 >= 2);
  const size_t k = pilot_variances.size();
  std::vector<double> deltas(k, 0.0);
  if (k == 0) return deltas;

  // Find a projected sample size N* at which every hypothesis can meet ε′
  // with some feasible δ_i; start at N0 and double (mirroring the main
  // loop's schedule) up to Nmax. A hypothesis is feasible at N iff the
  // bound at the cap δ0 = 0.5 reaches ε′ (SolveDeltaForEpsilon's own first
  // test), so the rounds test only that, stopping at the first miss, and
  // the δ solve runs once per hypothesis at the final N*.
  uint64_t n_star = n0;
  for (;;) {
    bool all_feasible = true;
    for (size_t i = 0; i < k && all_feasible; ++i) {
      all_feasible = EmpiricalBernsteinEpsilon(n_star, 0.5,
                                               pilot_variances[i]) <=
                     epsilon_prime;
    }
    if (all_feasible || n_star >= n_max) break;
    n_star = std::min(n_star * 2, n_max);
  }
  std::vector<double> need(k);
  for (size_t i = 0; i < k; ++i) {
    need[i] = SolveDeltaForEpsilon(n_star, pilot_variances[i], epsilon_prime);
  }
  // Any still-infeasible hypothesis (variance too high even at Nmax) gets
  // the smallest positive need so the rescale below still covers it; the
  // VC cap at Nmax guarantees its accuracy regardless (Lemma 4).
  double min_positive = 1.0;
  for (double d : need) {
    if (d > 0.0) min_positive = std::min(min_positive, d);
  }
  for (double& d : need) {
    if (d <= 0.0) d = min_positive * 1e-3;
  }
  // Rescale so Σ 2δ_i = delta_budget (Eq. 13).
  double total = 0.0;
  for (double d : need) total += 2.0 * d;
  double scale = delta_budget / total;
  for (size_t i = 0; i < k; ++i) {
    deltas[i] = need[i] * scale;
    SAPHYRA_CHECK(deltas[i] > 0.0);
  }
  return deltas;
}

}  // namespace saphyra
