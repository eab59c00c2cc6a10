#ifndef SAPHYRA_BASELINES_ABRA_H_
#define SAPHYRA_BASELINES_ABRA_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/saphyra.h"
#include "graph/graph.h"

namespace saphyra {

/// \brief Output of ABRA. The inherited epsilon_achieved is the
/// Rademacher bound (ε mode) or widest confidence half-width (top-k mode).
struct AbraResult : RunOutcome {
  /// Estimated betweenness for all n nodes (ABRA cannot restrict itself to
  /// a subset — one of the paper's motivating observations).
  std::vector<double> bc;
  uint32_t epochs = 0;
  /// Last Rademacher deviation bound (ε mode), or the final top-k
  /// separation gap (top-k mode; ≥ 0 iff separation was reached).
  double final_bound = 0.0;
  double seconds = 0.0;
};

/// \brief ABRA: progressive node-pair sampling with a Rademacher-average
/// stopping rule.
///
/// Each sample is a uniform ordered pair (u,v); the BFS dependency
/// accumulation credits every node w on a shortest u-v path with
/// σ_uv(w)/σ_uv. The stopping rule bounds the supremum deviation by
/// 2·R̃ + 3·sqrt(ln(2/δ_e)/2N), where the empirical Rademacher average R̃
/// is bounded through the exponential-moment ("Massart-style") function of
/// the per-node sums of squares minimized over its scale parameter — the
/// self-bounding computation ABRA performs at the end of each sample
/// schedule epoch. The run executes on the shared progressive scheduler
/// (core/progressive_sampler.h): epochs double the sample size, δ is
/// split evenly across the planned checks, and a Riondato–Kornaropoulos
/// VC cap bounds the schedule. ABRA has no options of its own: with
/// `top_k` set it stops once the top-k node set is separated by per-node
/// empirical-Bernstein intervals instead.
AbraResult RunAbra(const Graph& g, const SamplingOptions& options);

/// \brief ABRA's pair-dependency sampling problem as a standalone object,
/// for shard workers that replay stripe draws bit-for-bit. Identical RNG
/// consumption per sample to the problem RunAbra builds internally.
std::unique_ptr<HypothesisRankingProblem> MakeAbraSamplingProblem(
    const Graph& g);

}  // namespace saphyra

#endif  // SAPHYRA_BASELINES_ABRA_H_
