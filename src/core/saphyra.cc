#include "core/saphyra.h"

#include <algorithm>
#include <cmath>

#include "core/progressive_sampler.h"
#include "stats/delta_allocation.h"
#include "stats/empirical_bernstein.h"
#include "stats/vc.h"
#include "util/logging.h"

namespace saphyra {

void HypothesisRankingProblem::SampleWeightedLosses(
    Rng* rng, std::vector<WeightedHit>* hits) {
  (void)rng;
  (void)hits;
  SAPHYRA_CHECK_MSG(false,
                    "SampleWeightedLosses called on a 0/1-loss problem");
}

namespace {

ProgressiveOptions ScheduleFor(const SamplingOptions& options, uint64_t n0,
                               uint64_t n_max, uint32_t ordinal) {
  ProgressiveOptions schedule;
  schedule.initial_samples = n0;
  schedule.max_samples = n_max;
  schedule.growth = 2.0;  // Algorithm 1's doubling schedule
  schedule.max_wave = options.max_wave;
  schedule.num_threads = options.num_threads;
  schedule.cancel = options.cancel;
  // Each progressive run gets its own delegated executor: the pilot
  // (ordinal 0) and main loop (ordinal 1) consume independent RNG
  // streams, so the sharded tier tracks their stripe positions separately.
  if (options.wave_executor) {
    schedule.executor = options.wave_executor(ordinal);
  }
  return schedule;
}

}  // namespace

SaphyraResult RunSaphyra(HypothesisRankingProblem* problem,
                         const SaphyraOptions& options) {
  SAPHYRA_CHECK(options.epsilon > 0.0 && options.epsilon < 1.0);
  SAPHYRA_CHECK(options.delta > 0.0 && options.delta < 1.0);
  const size_t k = problem->num_hypotheses();

  SaphyraResult result;
  result.lambda_hat = problem->ComputeExactRisks(&result.exact_risks);
  SAPHYRA_CHECK(result.exact_risks.size() == k);
  SAPHYRA_CHECK(result.lambda_hat >= 0.0 && result.lambda_hat <= 1.0 + 1e-9);
  result.lambda = std::max(0.0, 1.0 - result.lambda_hat);
  result.approx_risks.assign(k, 0.0);
  result.combined_risks = result.exact_risks;
  if (k == 0) return result;

  const double lambda = result.lambda;
  if (lambda <= 1e-12) {
    // The exact subspace carries all the mass; nothing to estimate.
    result.epsilon_prime = std::numeric_limits<double>::infinity();
    return result;
  }
  // Line 5 of Algorithm 1: allowing error ε′ = ε/λ on the approximate part
  // yields error λ·ε′ = ε on the combination (Lemma 7's 1/λ² saving).
  const double eps_prime = options.epsilon / lambda;
  result.epsilon_prime = eps_prime;

  // Pilot and main loop sample independent streams (ordinals 0 and 1).
  Rng pilot_rng = ProgressiveRunStream(options.seed, 0, 2);
  Rng rng = ProgressiveRunStream(options.seed, 1, 2);

  const double c = kVcSampleConstant;
  const double vc = problem->VcDimension();
  const double log_inv_delta = std::log(1.0 / options.delta);
  auto to_count = [](double x) {
    return static_cast<uint64_t>(std::ceil(std::max(0.0, x)));
  };
  // Lines 6-7: initial and maximal sample sizes.
  uint64_t n0 = to_count(c / (eps_prime * eps_prime) * log_inv_delta);
  n0 = std::max(n0, kMinInitialSamples);
  uint64_t n_max =
      to_count(c / (eps_prime * eps_prime) * (vc + log_inv_delta));
  n_max = std::max(n_max, n0);
  result.max_samples = n_max;

  // Pilot phase (§III-C): estimate variances on an independent stream and
  // allocate per-hypothesis failure probabilities (Eq. 13). A fixed-budget
  // progressive run of exactly n0 samples.
  std::vector<double> pilot_vars(k);
  {
    ProgressiveSampler pilot(problem, ScheduleFor(options, n0, n0, 0),
                             &pilot_rng);
    FixedBudgetRule pilot_rule;
    ProgressiveResult pilot_run = pilot.Run(&pilot_rule);
    result.pilot_samples = pilot_run.samples_used;
    if (pilot_run.stats.n >= 2) {
      for (size_t i = 0; i < k; ++i) {
        pilot_vars[i] = pilot_run.stats.sample_variance(i);
      }
    } else {
      // A cancel truncated the pilot before a variance estimate existed:
      // fall back to the worst-case [0,1] variance, which makes the δ
      // allocation uniform-conservative. The main run below will degrade
      // almost immediately anyway; its truncated bits stay deterministic
      // because this fallback is, too.
      pilot_vars.assign(k, 0.25);
    }
  }
  // The δ budget must be split over exactly the checkpoints the main
  // sampler will evaluate, so the growth factor comes from the schedule
  // itself rather than a second literal that could drift.
  const ProgressiveOptions main_schedule =
      ScheduleFor(options, n0, n_max, 1);
  const uint32_t checks =
      PlannedChecks(n0, n_max, main_schedule.growth);
  const double delta_budget = options.delta / static_cast<double>(checks);
  std::vector<double> deltas =
      AllocateDeltas(pilot_vars, eps_prime, delta_budget, n0, n_max);

  // Main adaptive loop (lines 10-18) on the shared progressive scheduler:
  // grow N geometrically until the stopping rule fires or the VC cap Nmax
  // is reached (at which point Lemma 4 supplies the guarantee
  // unconditionally). ε-mode checks the empirical Bernstein bound per
  // hypothesis; top-k mode checks confidence-interval separation of the k
  // best combined estimates.
  ProgressiveSampler sampler(problem, main_schedule, &rng);
  ProgressiveResult run;
  // A top-k covering every hypothesis is a full ranking in disguise:
  // route it to the ε rule rather than to a vacuous separation check.
  if (options.top_k > 0 && options.top_k < k) {
    // Separation is evaluated on the full combined estimate: the exact-
    // subspace risks plus any external per-hypothesis mass the frontend
    // adds after this run, all in combined-risk units.
    std::vector<double> offsets = result.exact_risks;
    if (!options.top_k_offsets.empty()) {
      SAPHYRA_CHECK(options.top_k_offsets.size() == k);
      for (size_t i = 0; i < k; ++i) offsets[i] += options.top_k_offsets[i];
    }
    TopKSeparationRule rule(options.top_k, options.delta, std::move(deltas),
                            std::move(offsets), lambda);
    run = sampler.Run(&rule);
    // Half-widths are already in combined-risk units (the rule scales by
    // λ), so a degraded top-k run reports them as its achieved accuracy.
    if (run.degraded) {
      result.epsilon_achieved = rule.EvaluateWorstHalfwidth(run.stats);
    }
  } else {
    EpsilonGuaranteeRule rule(eps_prime, std::move(deltas));
    run = sampler.Run(&rule);
    if (run.degraded) {
      // The rule bounds the approximate part at ε′ = ε/λ; scale back.
      result.epsilon_achieved = lambda * rule.EvaluateWorstEpsilon(run.stats);
    }
  }
  result.samples_used = run.samples_used;
  result.rounds_used = run.checks_used;
  result.waves_used = run.waves_used;
  result.stopped_early = run.stopped_early;
  result.degraded = run.degraded;
  result.degrade_reason = run.degrade_reason;

  // Lines 19-21: combine.
  for (size_t i = 0; i < k; ++i) {
    result.approx_risks[i] = run.stats.mean(i);
    result.combined_risks[i] =
        result.exact_risks[i] + lambda * result.approx_risks[i];
  }
  return result;
}

}  // namespace saphyra
