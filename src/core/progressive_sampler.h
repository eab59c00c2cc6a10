#ifndef SAPHYRA_CORE_PROGRESSIVE_SAMPLER_H_
#define SAPHYRA_CORE_PROGRESSIVE_SAMPLER_H_

/// \file
/// Progressive (wave-based) adaptive sampling: the single sampling loop
/// behind every estimator frontend in this codebase (core SaPHyRa, the
/// SaPHyRa_bc pipeline, and the ABRA / KADABRA baselines).
///
/// A `ProgressiveSampler` draws samples on the pooled `SampleEngine` in
/// geometric *checkpoint* targets (n0, n0·g, n0·g², …, capped by the VC
/// budget Nmax) and evaluates a pluggable `StoppingRule` at every
/// checkpoint. Between checkpoints the draw may be further batched into
/// *waves* of at most `max_wave` samples — batching granularity is an
/// execution knob only and never affects results.
///
/// **Determinism.** The checkpoint geometry (n0, growth, Nmax) is part of
/// the statistical contract: it determines how the failure budget δ is
/// split across checks, so two runs with different geometries are
/// different (equally valid) estimators. Everything else is execution:
/// for a fixed (seed, stopping rule, checkpoint geometry), results are
/// bitwise identical across thread counts, wave sizes, pool schedules and
/// repeated runs — the engine stripes samples over a fixed number of
/// logical RNG streams (`stripes`), and all accumulation is integer (hit
/// counts, and 32.32 fixed point for fractional losses), hence
/// associative. See DESIGN.md, "Adaptive stopping contract".
///
/// Ownership/threading: a sampler borrows the problem and base RNG (both
/// must outlive it) and is single-driver — Run() once, from one thread.
/// Independent samplers may run concurrently from different driver
/// threads (they share SharedThreadPool through per-call task groups);
/// the serving layer's BatchScheduler (src/service/scheduler.h) does
/// exactly that, one sampler per admitted query.

#include <cstdint>
#include <vector>

#include "core/sample_engine.h"
#include "core/saphyra.h"
#include "util/cancel.h"
#include "util/rng.h"

namespace saphyra {

/// Logical RNG stripes of the sampling loop. Fixed by default so that
/// results do not depend on the thread count; changing it changes the
/// stream partition and therefore the (equally valid) draw.
inline constexpr uint32_t kDefaultSampleStripes = 16;

/// Floor on the first checkpoint n0 of every adaptive schedule, so the
/// stopping rule has a meaningful variance estimate even when ε is coarse.
inline constexpr uint64_t kMinInitialSamples = 32;

/// \brief Schedule and execution parameters of the progressive loop.
struct ProgressiveOptions {
  /// First checkpoint n0 (clamped to ≥ 2 so variances are defined).
  uint64_t initial_samples = kMinInitialSamples;
  /// Hard sample budget Nmax (the VC bound); the loop never exceeds it and
  /// the guarantee of Lemma 4 holds unconditionally once it is reached.
  uint64_t max_samples = 0;
  /// Geometric growth factor between checkpoints (> 1; 2 = doubling).
  double growth = 2.0;
  /// Cap on samples per engine wave (0 = one wave per checkpoint; the
  /// sampler caps it at 1024 when `cancel` can expire, so the poll bites).
  /// Execution granularity only — never affects results.
  uint64_t max_wave = 0;
  /// Worker threads (1 = inline on the caller's thread; >1 executes on the
  /// persistent SharedThreadPool). Never affects results.
  uint32_t num_threads = 1;
  /// Logical RNG stripes (0 = kDefaultSampleStripes). Part of the seed:
  /// different stripe counts draw different (equally valid) streams.
  uint32_t stripes = 0;
  /// Optional cooperative cancellation, polled once per wave (null =
  /// never stops early). On expiry the run finalizes from completed waves
  /// only and is tagged degraded; polling happens at deterministic wave
  /// boundaries, so the truncated statistics are a pure function of
  /// (seed, truncation point) — see util/cancel.h. Borrowed; must outlive
  /// the run.
  const CancelToken* cancel = nullptr;
  /// Optional delegated wave execution (core/sample_engine.h): when set,
  /// every wave is executed through this hook instead of being drawn
  /// locally — the sharded serving tier farms stripes out to worker
  /// processes here. A failing wave degrades the run (the failure's status
  /// code becomes `degrade_reason`) exactly like a deadline expiry: the
  /// result finalizes from completed waves only. Borrowed; must outlive
  /// the run. Never affects result bytes while waves succeed.
  WaveExecutor* executor = nullptr;
};

/// \brief The base RNG stream of a frontend's `ordinal`-th progressive run
/// out of `num_runs`, derived from the query seed: the one stream plan
/// that every frontend and the shard worker (service/shard_worker.h)
/// share. A one-run estimator (ABRA, KADABRA) uses Rng(seed) itself;
/// RunSaphyra's pilot (ordinal 0 of 2) uses Rng(seed).Split(), and its
/// main loop (ordinal 1) what remains of Rng(seed).
Rng ProgressiveRunStream(uint64_t seed, uint32_t ordinal, uint32_t num_runs);

/// \brief Number of stopping-rule checkpoints the schedule will evaluate:
/// the length of the sequence n0, ⌈n0·g⌉, … truncated at Nmax (inclusive).
/// Stopping rules split their failure budget δ over this count.
uint32_t PlannedChecks(uint64_t initial_samples, uint64_t max_samples,
                       double growth);

/// \brief The standard VC-capped doubling schedule shared by the whole-
/// graph estimators (ABRA, KADABRA): n0 = c/ε²·ln(2/δ) floored at
/// kMinInitialSamples, and Nmax = max(n0, VcSampleBound(ε, δ, vc)), with
/// the execution fields (threads, wave cap, cancel token, and the ordinal-0
/// delegated executor) taken from `options`. Keeps the two frontends'
/// schedules from drifting apart.
ProgressiveOptions MakeVcCappedSchedule(const SamplingOptions& options,
                                        double vc_dimension);

/// \brief A stopping criterion evaluated between sampling waves.
///
/// Implementations: `FixedBudgetRule` (run to the VC cap),
/// `EpsilonGuaranteeRule` (empirical-Bernstein ε-guarantee with per-
/// hypothesis δ allocation), `TopKSeparationRule` (confidence-interval
/// separation of the k best), and ABRA's Rademacher-average rule
/// (baselines/abra.cc) — proof that the interface carries stopping
/// criteria that are not per-hypothesis deviation bounds.
class StoppingRule {
 public:
  virtual ~StoppingRule() = default;

  /// \brief Called once before sampling with the checkpoint geometry, so
  /// uniform-allocation rules can split δ across the planned checks.
  virtual void Begin(uint64_t initial_samples, uint64_t max_samples,
                     uint32_t planned_checks) {}

  /// \brief Evaluate the rule on the merged statistics of stats.n samples.
  /// Returning true ends the run (stats.n becomes the final sample size).
  virtual bool ShouldStop(const SampleStats& stats) = 0;
};

/// \brief Never stops early: runs the schedule to Nmax, where the VC bound
/// (Lemma 4) supplies the (ε, δ)-guarantee unconditionally. The fixed-
/// budget baseline that `adaptive_sample_reduction` compares against.
class FixedBudgetRule : public StoppingRule {
 public:
  bool ShouldStop(const SampleStats& stats) override { return false; }
};

/// \brief Empirical-Bernstein ε-guarantee (lines 10-18 of Algorithm 1):
/// stop once every hypothesis i satisfies ε(N, δ_i, Var_i) ≤ ε.
///
/// The per-hypothesis failure budgets δ_i either come from the caller
/// (variance-aware pilot allocation, stats/delta_allocation.h) or are
/// split uniformly over hypotheses, both tails and the planned checks.
class EpsilonGuaranteeRule : public StoppingRule {
 public:
  /// Explicit per-hypothesis budgets (each δ_i spent at every check; the
  /// caller has already divided by the number of checks).
  EpsilonGuaranteeRule(double epsilon, std::vector<double> deltas);
  /// Uniform allocation: δ_i = δ / (2 · k · planned_checks), computed in
  /// Begin. This is KADABRA's simplified union-bound bookkeeping.
  EpsilonGuaranteeRule(double epsilon, double delta, size_t num_hypotheses);

  void Begin(uint64_t initial_samples, uint64_t max_samples,
             uint32_t planned_checks) override;
  bool ShouldStop(const SampleStats& stats) override;

  /// Worst per-hypothesis deviation bound of the last evaluation. May be
  /// an underestimate when the last check failed early (ShouldStop breaks
  /// at the first hypothesis over budget); use EvaluateWorstEpsilon for
  /// the exact value.
  double last_worst_epsilon() const { return last_worst_epsilon_; }

  /// Exact worst-case deviation bound over *all* hypotheses at `stats` —
  /// the achieved ε a degraded (deadline-truncated) run reports. Infinity
  /// when fewer than two samples were drawn (no variance estimate).
  double EvaluateWorstEpsilon(const SampleStats& stats) const;

 private:
  double epsilon_;
  std::vector<double> deltas_;
  double uniform_delta_total_ = 0.0;
  size_t num_hypotheses_ = 0;
  double last_worst_epsilon_ = 0.0;
};

/// \brief Top-k separation: stop as soon as the k hypotheses with the
/// highest estimates are separated from the rest by their empirical-
/// Bernstein confidence half-widths — the smallest lower confidence bound
/// inside the top-k set must reach the largest upper bound outside it.
///
/// Estimates are affine in the sampled mean (`value_i = offset_i +
/// scale · mean_i`), which is exactly how every frontend combines the
/// exact-subspace risks with the sampled remainder; half-widths scale by
/// the same factor. When separation never occurs (ties, or a degenerate
/// k covering every hypothesis), the schedule runs to Nmax and the VC
/// bound still guarantees ε-accurate values.
class TopKSeparationRule : public StoppingRule {
 public:
  /// `deltas` — per-hypothesis budgets (empty = uniform allocation from
  /// `delta`, as in EpsilonGuaranteeRule). `offsets` — per-hypothesis
  /// additive exact parts (empty = all zero).
  TopKSeparationRule(size_t k, double delta, std::vector<double> deltas,
                     std::vector<double> offsets, double scale);

  void Begin(uint64_t initial_samples, uint64_t max_samples,
             uint32_t planned_checks) override;
  bool ShouldStop(const SampleStats& stats) override;

  /// Confidence gap (min top-k lower bound − max rest upper bound) of the
  /// last evaluation; ≥ 0 once separated.
  double last_gap() const { return last_gap_; }

  /// Largest per-hypothesis confidence half-width at `stats`, in the same
  /// (scaled) units as the values — the achieved accuracy a degraded
  /// top-k run reports. Infinity when fewer than two samples were drawn.
  /// Non-const because uniform δ allocation materializes lazily.
  double EvaluateWorstHalfwidth(const SampleStats& stats);

 private:
  size_t k_;
  double delta_total_;
  double per_check_delta_ = 0.0;
  std::vector<double> deltas_;
  std::vector<double> offsets_;
  double scale_;
  double last_gap_ = 0.0;
  std::vector<double> values_;      // scratch
  std::vector<double> halfwidths_;  // scratch
  std::vector<uint32_t> order_;     // scratch
};

/// \brief Diagnostics and output of a progressive run.
struct ProgressiveResult {
  SampleStats stats;           ///< merged statistics at the stop point
  uint64_t samples_used = 0;   ///< final N (== stats.n)
  uint32_t checks_used = 0;    ///< stopping-rule evaluations
  uint32_t waves_used = 0;     ///< engine batches drawn
  bool stopped_early = false;  ///< rule fired before Nmax
  /// The cancel token fired before the rule or Nmax: the statistics cover
  /// completed waves only and the rule's guarantee does NOT hold. Still
  /// deterministic for a fixed (seed, samples_used) — see util/cancel.h.
  bool degraded = false;
  /// Why the run degraded: kDeadlineExceeded or kCancelled from the
  /// token, or the wave executor's failure code (kUnavailable when the
  /// sharded tier lost its workers past the retry budget). kOk unless
  /// `degraded`.
  StatusCode degrade_reason = StatusCode::kOk;
};

/// \brief The shared wave scheduler. Owns a pooled SampleEngine over the
/// problem (striped RNG streams, persistent thread pool) and runs the
/// checkpoint schedule against a stopping rule.
class ProgressiveSampler {
 public:
  /// `base_rng` seeds the stripe streams (consumed at construction);
  /// `problem` and `base_rng` must outlive the sampler.
  ProgressiveSampler(HypothesisRankingProblem* problem,
                     const ProgressiveOptions& options, Rng* base_rng);

  /// \brief Run the schedule until `rule` fires or Nmax is reached. May be
  /// called once per sampler (the engine's streams are consumed).
  ProgressiveResult Run(StoppingRule* rule);

 private:
  ProgressiveOptions options_;
  SampleEngine engine_;
};

}  // namespace saphyra

#endif  // SAPHYRA_CORE_PROGRESSIVE_SAMPLER_H_
