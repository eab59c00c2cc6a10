#include "core/progressive_sampler.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stats/empirical_bernstein.h"
#include "stats/vc.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace saphyra {

namespace {

/// Next checkpoint after n under geometric growth, capped at n_max.
/// Guaranteed to advance by at least one sample so the schedule always
/// terminates, whatever the growth factor rounds to.
uint64_t NextCheckpoint(uint64_t n, uint64_t n_max, double growth) {
  double scaled = static_cast<double>(n) * growth;
  uint64_t next = scaled >= static_cast<double>(n_max)
                      ? n_max
                      : static_cast<uint64_t>(std::ceil(scaled));
  next = std::max(next, n + 1);
  return std::min(next, n_max);
}

uint64_t ClampInitial(uint64_t initial_samples, uint64_t max_samples) {
  return std::min(std::max<uint64_t>(initial_samples, 2), max_samples);
}

}  // namespace

uint32_t PlannedChecks(uint64_t initial_samples, uint64_t max_samples,
                       double growth) {
  SAPHYRA_CHECK(max_samples >= 2);
  SAPHYRA_CHECK(growth > 1.0);
  uint64_t n = ClampInitial(initial_samples, max_samples);
  uint32_t checks = 1;
  while (n < max_samples) {
    n = NextCheckpoint(n, max_samples, growth);
    ++checks;
  }
  return checks;
}

Rng ProgressiveRunStream(uint64_t seed, uint32_t ordinal,
                         uint32_t num_runs) {
  SAPHYRA_CHECK(ordinal < num_runs && num_runs <= 2);
  Rng rng(seed);
  if (num_runs == 1) return rng;
  Rng pilot = rng.Split();
  return ordinal == 0 ? pilot : rng;
}

ProgressiveOptions MakeVcCappedSchedule(double epsilon, double delta,
                                        double vc_dimension,
                                        double vc_constant,
                                        uint64_t max_wave,
                                        uint32_t num_threads) {
  ProgressiveOptions schedule;
  schedule.initial_samples = std::max<uint64_t>(
      32, static_cast<uint64_t>(std::ceil(
              vc_constant / (epsilon * epsilon) * std::log(2.0 / delta))));
  schedule.max_samples =
      std::max(schedule.initial_samples,
               VcSampleBound(epsilon, delta, vc_dimension, vc_constant));
  schedule.growth = 2.0;
  schedule.max_wave = max_wave;
  schedule.num_threads = num_threads;
  return schedule;
}

EpsilonGuaranteeRule::EpsilonGuaranteeRule(double epsilon,
                                           std::vector<double> deltas)
    : epsilon_(epsilon), deltas_(std::move(deltas)) {
  SAPHYRA_CHECK(epsilon_ > 0.0);
}

EpsilonGuaranteeRule::EpsilonGuaranteeRule(double epsilon, double delta,
                                           size_t num_hypotheses)
    : epsilon_(epsilon),
      uniform_delta_total_(delta),
      num_hypotheses_(num_hypotheses) {
  SAPHYRA_CHECK(epsilon_ > 0.0);
  SAPHYRA_CHECK(delta > 0.0 && delta < 1.0);
}

void EpsilonGuaranteeRule::Begin(uint64_t initial_samples,
                                 uint64_t max_samples,
                                 uint32_t planned_checks) {
  if (deltas_.empty() && num_hypotheses_ > 0) {
    // Uniform split over hypotheses, both tails, and every check.
    const double d = uniform_delta_total_ /
                     (2.0 * static_cast<double>(num_hypotheses_) *
                      static_cast<double>(planned_checks));
    deltas_.assign(num_hypotheses_, d);
  }
}

bool EpsilonGuaranteeRule::ShouldStop(const SampleStats& stats) {
  SAPHYRA_CHECK(deltas_.size() == stats.counts.size());
  if (stats.n < 2) return false;
  double worst = 0.0;
  for (size_t i = 0; i < deltas_.size(); ++i) {
    worst = std::max(worst, EmpiricalBernsteinEpsilon(
                                stats.n, deltas_[i],
                                stats.sample_variance(i)));
    if (worst > epsilon_) break;  // already failed this check
  }
  last_worst_epsilon_ = worst;
  return worst <= epsilon_;
}

double EpsilonGuaranteeRule::EvaluateWorstEpsilon(
    const SampleStats& stats) const {
  if (stats.n < 2 || deltas_.size() != stats.counts.size()) {
    return std::numeric_limits<double>::infinity();
  }
  double worst = 0.0;
  for (size_t i = 0; i < deltas_.size(); ++i) {
    worst = std::max(worst, EmpiricalBernsteinEpsilon(
                                stats.n, deltas_[i],
                                stats.sample_variance(i)));
  }
  return worst;
}

TopKSeparationRule::TopKSeparationRule(size_t k, double delta,
                                       std::vector<double> deltas,
                                       std::vector<double> offsets,
                                       double scale)
    : k_(k),
      delta_total_(delta),
      deltas_(std::move(deltas)),
      offsets_(std::move(offsets)),
      scale_(scale) {
  SAPHYRA_CHECK(k_ > 0);
  SAPHYRA_CHECK(scale_ > 0.0);
}

void TopKSeparationRule::Begin(uint64_t initial_samples, uint64_t max_samples,
                               uint32_t planned_checks) {
  if (deltas_.empty()) {
    SAPHYRA_CHECK(delta_total_ > 0.0 && delta_total_ < 1.0);
    // Uniform allocation is split per hypothesis lazily, at the first
    // check, when the hypothesis count is known (deltas_ stays empty
    // until then); only the per-check budget is fixed here.
    per_check_delta_ = delta_total_ / static_cast<double>(planned_checks);
  } else {
    per_check_delta_ = 0.0;
  }
}

bool TopKSeparationRule::ShouldStop(const SampleStats& stats) {
  const size_t n_hyp = stats.counts.size();
  if (stats.n < 2) return false;
  if (k_ >= n_hyp) {
    // Everything is in the top-k: "separation" is vacuous, and stopping
    // at the first check would return minimally-sampled estimates with
    // no guarantee at all. Run the schedule to the VC cap instead, which
    // keeps the documented ε fallback. (Frontends normally route this
    // degenerate request to ε-mode before it reaches the rule.)
    last_gap_ = 0.0;
    return false;
  }
  if (deltas_.empty()) {
    deltas_.assign(n_hyp, per_check_delta_ /
                              (2.0 * static_cast<double>(n_hyp)));
  }
  SAPHYRA_CHECK(deltas_.size() == n_hyp);
  SAPHYRA_CHECK(offsets_.empty() || offsets_.size() == n_hyp);
  values_.resize(n_hyp);
  halfwidths_.resize(n_hyp);
  order_.resize(n_hyp);
  for (size_t i = 0; i < n_hyp; ++i) {
    const double base = offsets_.empty() ? 0.0 : offsets_[i];
    values_[i] = base + scale_ * stats.mean(i);
    halfwidths_[i] =
        scale_ * EmpiricalBernsteinEpsilon(stats.n, deltas_[i],
                                           stats.sample_variance(i));
    order_[i] = static_cast<uint32_t>(i);
  }
  // Partition the indices into the k best values and the rest. Ties at the
  // boundary land on either side; separation then simply never triggers,
  // which is the conservative behavior (run to the VC cap).
  std::nth_element(order_.begin(), order_.begin() + (k_ - 1), order_.end(),
                   [&](uint32_t a, uint32_t b) {
                     return values_[a] > values_[b];
                   });
  double top_lower = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < k_; ++i) {
    const uint32_t h = order_[i];
    top_lower = std::min(top_lower, values_[h] - halfwidths_[h]);
  }
  double rest_upper = -std::numeric_limits<double>::infinity();
  for (size_t i = k_; i < n_hyp; ++i) {
    const uint32_t h = order_[i];
    rest_upper = std::max(rest_upper, values_[h] + halfwidths_[h]);
  }
  last_gap_ = top_lower - rest_upper;
  return last_gap_ >= 0.0;
}

double TopKSeparationRule::EvaluateWorstHalfwidth(const SampleStats& stats) {
  const size_t n_hyp = stats.counts.size();
  if (stats.n < 2 || n_hyp == 0) {
    return std::numeric_limits<double>::infinity();
  }
  if (deltas_.empty()) {
    deltas_.assign(n_hyp, per_check_delta_ /
                              (2.0 * static_cast<double>(n_hyp)));
  }
  SAPHYRA_CHECK(deltas_.size() == n_hyp);
  double worst = 0.0;
  for (size_t i = 0; i < n_hyp; ++i) {
    worst = std::max(worst,
                     scale_ * EmpiricalBernsteinEpsilon(
                                  stats.n, deltas_[i],
                                  stats.sample_variance(i)));
  }
  return worst;
}

ProgressiveSampler::ProgressiveSampler(HypothesisRankingProblem* problem,
                                       const ProgressiveOptions& options,
                                       Rng* base_rng)
    : options_(options),
      engine_(problem,
              options.stripes == 0 ? kDefaultSampleStripes : options.stripes,
              base_rng,
              options.num_threads > 1 ? &SharedThreadPool() : nullptr) {
  SAPHYRA_CHECK(options_.max_samples >= 2);
  SAPHYRA_CHECK(options_.growth > 1.0);
  // A bounded run must reach wave boundaries often enough for the poll to
  // matter; an unbounded wave would only notice expiry at the checkpoint.
  if (options_.cancel != nullptr && options_.cancel->CanExpire() &&
      options_.max_wave == 0) {
    options_.max_wave = 1024;
  }
  engine_.set_wave_executor(options_.executor);
}

ProgressiveResult ProgressiveSampler::Run(StoppingRule* rule) {
  ProgressiveResult result;
  const uint64_t n_max = options_.max_samples;
  uint64_t checkpoint = ClampInitial(options_.initial_samples, n_max);
  rule->Begin(checkpoint, n_max,
              PlannedChecks(checkpoint, n_max, options_.growth));
  uint64_t n = 0;
  for (;;) {
    // Waves only accumulate; the O(k) statistics are materialized once
    // per checkpoint, where a stopping rule actually reads them.
    while (n < checkpoint) {
      // Cancellation is polled only here, at wave boundaries: an expiry
      // truncates to *completed* waves, so the statistics below are a
      // pure function of (seed, n) whatever the wall clock did.
      if (options_.cancel != nullptr) {
        const StatusCode why = options_.cancel->Poll();
        if (why != StatusCode::kOk) {
          result.degraded = true;
          result.degrade_reason = why;
          break;
        }
      }
      fail::MaybeFault("sampler.wave");
      uint64_t wave_target =
          options_.max_wave == 0
              ? checkpoint
              : std::min(checkpoint, n + options_.max_wave);
      n = engine_.DrawAccumulate(n, wave_target);
      if (!engine_.last_wave_status().ok()) {
        // A delegated wave failed (e.g. the sharded tier lost its workers
        // past the retry budget). The failed wave contributed nothing, so
        // — like a deadline expiry — the run finalizes from completed
        // waves only, tagged with the failure's code.
        result.degraded = true;
        result.degrade_reason = engine_.last_wave_status().code();
        break;
      }
      ++result.waves_used;
    }
    engine_.SnapshotStats(n, &result.stats);
    ++result.checks_used;
    if (result.degraded) {
      // Truncated between checkpoints: evaluate the rule once at the
      // truncation point for its diagnostics (achieved ε / gap), but the
      // stop is the token's, not the rule's — no guarantee is claimed.
      if (n >= 2) rule->ShouldStop(result.stats);
      break;
    }
    if (rule->ShouldStop(result.stats)) {
      result.stopped_early = n < n_max;
      break;
    }
    if (n >= n_max) break;
    checkpoint = NextCheckpoint(n, n_max, options_.growth);
  }
  result.samples_used = n;
  return result;
}

}  // namespace saphyra
