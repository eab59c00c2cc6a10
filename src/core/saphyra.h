#ifndef SAPHYRA_CORE_SAPHYRA_H_
#define SAPHYRA_CORE_SAPHYRA_H_

/// \file
/// The generic SaPHyRa framework (Algorithm 1 of the paper): rank a
/// hypothesis class by (ε,δ)-estimates of expected risk, splitting the
/// sample space into an exactly-computed subspace and a sampled remainder.
/// The betweenness instantiation lives in bc/saphyra_bc.h; its
/// preprocessing (the ISP index of bicomp/isp.h) can be persisted in a
/// `.sgr` cache and adopted without recomputation — see README.md,
/// "The .sgr binary cache" and DESIGN.md, "The .sgr on-disk format".
/// For a tour of the public API, start at README.md, "Library tour", or
/// examples/quickstart.cpp.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "graph/frontier.h"
#include "util/cancel.h"
#include "util/rng.h"

namespace saphyra {

class WaveExecutor;  // core/sample_engine.h

/// \brief One weighted loss observation: hypothesis `index` incurred loss
/// `value` ∈ [0, 1] on the current sample. Used by problems whose losses
/// are fractional rather than 0/1 (e.g. ABRA's σ_uv(w)/σ_uv credits).
struct WeightedHit {
  uint32_t index;
  double value;
};

/// \brief A hypothesis-ranking problem with a partitioned sample space
/// (§III of the paper).
///
/// An instantiation fixes a sample space X, a distribution D, a 0/1 loss,
/// and a hypothesis class H = {h_1..h_k}, together with a partition
/// X = X̂ ∪ X̃ into an *exact* and an *approximate* subspace:
///
///  * ComputeExactRisks plays the role of the paper's `Exact(·)` oracle: it
///    returns the exact-subspace risks ℓ̂_i (Eq. 9) and the subspace weight
///    λ̂ = Pr_D[x ∈ X̂].
///  * SampleApproxLosses plays the role of `Gen(·)`: it draws one sample
///    from D̃ = D conditioned on X̃ (Eq. 10) and reports which hypotheses
///    incur loss 1 on it (losses are restricted to {0,1}, which is all the
///    paper's instantiations use — Eq. 27).
///  * VcDimension returns an upper bound on VC(H) over X̃, capping the
///    sample budget via Lemma 4.
class HypothesisRankingProblem {
 public:
  virtual ~HypothesisRankingProblem() = default;

  /// \brief Number of hypotheses k = |H|.
  virtual size_t num_hypotheses() const = 0;

  /// \brief Fill ℓ̂ (resized to k) and return λ̂ ∈ [0, 1].
  virtual double ComputeExactRisks(std::vector<double>* exact_risks) = 0;

  /// \brief Draw x ~ D̃ and append the indices {i : L(h_i(x), f(x)) = 1}
  /// to *hits (the caller clears the vector).
  virtual void SampleApproxLosses(Rng* rng, std::vector<uint32_t>* hits) = 0;

  /// \brief Upper bound on VC(H) (e.g. Lemma 5 / Corollary 22).
  virtual double VcDimension() const = 0;

  /// \brief Losses restricted to {0,1}? Problems with fractional losses in
  /// [0, 1] (ABRA-style dependency credits) return true and implement
  /// SampleWeightedLosses instead of SampleApproxLosses; the sampling
  /// engine then also tracks per-hypothesis loss sums and sums of squares.
  virtual bool has_weighted_losses() const { return false; }

  /// \brief Weighted counterpart of SampleApproxLosses: draw x ~ D̃ and
  /// append {i, L(h_i(x), f(x))} for every hypothesis with positive loss.
  /// Only called when has_weighted_losses() is true.
  virtual void SampleWeightedLosses(Rng* rng, std::vector<WeightedHit>* hits);

  /// \brief Optional: an independent sampling clone for one worker thread.
  ///
  /// Samples are i.i.d., so generation parallelizes trivially — the paper
  /// notes its framework "can be potentially combined with parallel and
  /// distributed methods". A clone must draw from the same distribution D̃
  /// but own its scratch state (BFS buffers etc.). Return nullptr (the
  /// default) to keep the run single-threaded. Clonability must be
  /// all-or-nothing: once a clone has been handed out, later calls must
  /// keep succeeding — the sampling engine sizes its deterministic RNG
  /// stream partition off the first probe, so a mid-run nullptr is a
  /// hard error rather than a degrade.
  virtual std::unique_ptr<HypothesisRankingProblem> CloneForSampling() {
    return nullptr;
  }
};

/// \brief The run parameters every estimator honours: Algorithm 1's
/// (ε, δ) and seed, the stopping mode, and the execution knobs. RunSaphyra,
/// SaPHyRa_bc and the ABRA / KADABRA baselines all drive the same
/// progressive loop (core/progressive_sampler.h) with these; their option
/// structs below add only what their own sample generators need.
struct SamplingOptions {
  /// Target accuracy ε of the (ε,δ)-estimation (Eq. 7), in the estimator's
  /// output units (SaPHyRa_bc: additive error on betweenness, Theorem 24).
  double epsilon = 0.05;
  /// Failure probability δ.
  double delta = 0.01;
  /// RNG seed; the whole run is deterministic given the seed. RunSaphyra's
  /// pilot samples an independent derived stream, as the paper requires
  /// ("the samples here are independent with the samples in x").
  uint64_t seed = 1;
  /// 0 = guaranteed-ε mode (stop when every hypothesis meets ε by the
  /// estimator's deviation bound). >0 = top-k mode: stop as soon as the k
  /// highest estimates are separated from the rest by their confidence
  /// half-widths (per-hypothesis δ allocation as in Eq. 13); the ε budget
  /// then only caps the sample schedule via the VC bound. A top_k covering
  /// every hypothesis is a full ranking in disguise and falls back to ε
  /// mode.
  uint64_t top_k = 0;
  /// Worker threads for sample generation (1 = serial, running inline on
  /// the caller's thread; >1 executes on the persistent SharedThreadPool).
  /// Purely an execution choice: the logical sampling streams are striped
  /// over a fixed number of RNG stripes, so results are bitwise identical
  /// for a given seed regardless of num_threads (see
  /// core/progressive_sampler.h, "Determinism").
  uint32_t num_threads = 1;
  /// Cap on the number of samples per engine wave (0 = one wave per
  /// stopping-rule checkpoint). Batching granularity only — never affects
  /// results (see the ProgressiveSampler determinism contract).
  uint64_t max_wave = 0;
  /// Optional cooperative cancellation/deadline, polled at wave
  /// boundaries of every progressive run (null = run to completion). On
  /// expiry the run finalizes from completed waves and the result is
  /// tagged degraded with the accuracy actually achieved — see
  /// util/cancel.h and DESIGN.md, "Degradation contract". Borrowed; must
  /// outlive the run.
  const CancelToken* cancel = nullptr;
  /// Optional delegated wave execution (core/sample_engine.h): called once
  /// per progressive run the estimator builds — ordinal 0 is the pilot,
  /// ordinal 1 the main estimation loop (the single-loop ABRA and KADABRA
  /// baselines only use 0) — and must return a borrowed executor for that
  /// run, or nullptr for local drawing. The sharded serving tier hooks its
  /// ShardedEngine in here. Empty = always local. Never affects result
  /// bytes while waves succeed.
  std::function<WaveExecutor*(uint32_t ordinal)> wave_executor;
};

/// \brief Parameters of Algorithm 1.
struct SaphyraOptions : SamplingOptions {
  /// Optional per-hypothesis additive constants (in combined-risk units)
  /// applied when evaluating top-k separation — exact mass the frontend
  /// adds *outside* this framework run, e.g. SaPHyRa_bc's break-point
  /// term bc_a(v)/(γη). Empty = no external offsets. Constants shift the
  /// estimates, not their confidence widths, so separation decisions
  /// match the frontend's final ranking.
  std::vector<double> top_k_offsets = {};
  /// How BFS-based sample generators expand their levels
  /// (graph/frontier.h): kAuto/kHybrid enable the direction-optimizing
  /// bottom-up pull, kTopDown forces the classic push. Execution choice
  /// only — results are bitwise identical either way (see DESIGN.md,
  /// "Direction-optimizing traversal").
  TraversalPolicy traversal = TraversalPolicy::kAuto;
};

/// \brief How an estimator's run ended: the fields of the degradation
/// contract (DESIGN.md, "Degradation contract") that every result carries.
struct RunOutcome {
  /// N of the main estimation loop.
  uint64_t samples_used = 0;
  /// True if the stopping rule (ε-guarantee, or top-k separation in top-k
  /// mode) triggered before the VC cap Nmax.
  bool stopped_early = false;
  /// The cancel token fired first: estimates come from completed waves
  /// only and the (ε, δ) guarantee does NOT hold. Deterministic for a
  /// fixed (seed, samples_used).
  bool degraded = false;
  /// kDeadlineExceeded or kCancelled (token), or kUnavailable (delegated
  /// wave execution lost its workers) when degraded; kOk otherwise.
  StatusCode degrade_reason = StatusCode::kOk;
  /// Only meaningful when degraded: the worst-case deviation bound the
  /// truncated run actually achieves, in the estimator's output units —
  /// ε mode: the deviation bound of its stopping rule over all hypotheses
  /// (RunSaphyra: λ-scaled Bernstein; ABRA: Rademacher); top-k mode: the
  /// widest confidence half-width. Infinity when truncation preceded the
  /// second sample (no variance estimate yet).
  double epsilon_achieved = 0.0;
};

/// \brief Diagnostics and output of Algorithm 1.
struct SaphyraResult : RunOutcome {
  /// Combined estimates ℓ_i = ℓ̂_i + λ·ℓ̃_i (Eq. 8); the (ε,δ)-estimates of
  /// the expected risks R(h_i) (Theorem 6).
  std::vector<double> combined_risks;
  /// Exact-subspace risks ℓ̂_i.
  std::vector<double> exact_risks;
  /// Approximate-subspace estimates ℓ̃_i (empirical means over X̃).
  std::vector<double> approx_risks;

  double lambda_hat = 0.0;     ///< Pr[x ∈ X̂]
  double lambda = 1.0;         ///< Pr[x ∈ X̃] = 1 − λ̂
  double epsilon_prime = 0.0;  ///< ε′ = ε/λ
  uint64_t pilot_samples = 0;
  uint64_t max_samples = 0;    ///< Nmax from the VC bound
  uint32_t rounds_used = 0;    ///< stopping-rule checkpoints evaluated
  uint32_t waves_used = 0;     ///< engine batches drawn (≥ rounds_used)
};

/// \brief Run Algorithm 1 (SaPHyRa) on a problem instance.
///
/// Returns (ε,δ)-estimates of the expected risks: with probability at least
/// 1 − δ, |R(h_i) − ℓ_i| < ε for every i (Theorem 6).
SaphyraResult RunSaphyra(HypothesisRankingProblem* problem,
                         const SaphyraOptions& options);

}  // namespace saphyra

#endif  // SAPHYRA_CORE_SAPHYRA_H_
