#ifndef SAPHYRA_BC_SAPHYRA_BC_H_
#define SAPHYRA_BC_SAPHYRA_BC_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bc/path_sampler.h"
#include "bicomp/isp.h"
#include "core/saphyra.h"
#include "graph/graph.h"

namespace saphyra {

/// \brief Parameters of the SaPHyRa_bc algorithm (§IV-D). The inherited
/// run fields are forwarded verbatim into the inner framework run, except
/// ε, which is rescaled to the ℓ units of Lemma 16; in top-k mode the
/// ranking is by the final b̃c (break-point mass included).
struct SaphyraBcOptions : SamplingOptions {
  /// Shortest-path sampling strategy of Gen_bc.
  SamplingStrategy strategy = SamplingStrategy::kBidirectional;
  /// BFS level-expansion policy of Gen_bc (graph/frontier.h):
  /// kAuto/kHybrid use the direction-optimizing kernel, kTopDown the
  /// classic push. Results are bitwise identical either way.
  TraversalPolicy traversal = TraversalPolicy::kAuto;
  /// Ablation switch: disable the 2-hop exact subspace (X̂ = ∅), leaving
  /// pure PISP sampling. Lemma 19's no-false-zero property is lost.
  bool use_exact_subspace = true;
};

/// \brief Output of SaPHyRa_bc. The inherited epsilon_achieved is in bc
/// units (γη × the framework's combined-risk bound).
struct SaphyraBcResult : RunOutcome {
  /// (ε,δ)-estimates b̃c(v), aligned with the `targets` argument.
  std::vector<double> bc;

  // --- diagnostics -----------------------------------------------------
  double gamma = 0.0;       ///< ISP normalization γ (Eq. 19)
  double eta = 0.0;         ///< personalization mass η (Eq. 23)
  double lambda_hat = 0.0;  ///< exact-subspace weight λ̂
  double vc_bound = 0.0;    ///< personalized VC bound (Corollary 22)
  double bs_bound = 0.0;    ///< bound on BS(A) (Lemma 23)
  uint64_t pilot_samples = 0;
  uint64_t max_samples = 0;
  uint64_t rejected_samples = 0;  ///< Gen_bc rejections (Alg. 2 line 6)
  double exact_seconds = 0.0;     ///< Exact_bc time
  double sampling_seconds = 0.0;  ///< adaptive sampling time
  double total_seconds = 0.0;
};

/// \brief Rank the nodes of `targets` by betweenness centrality with the
/// full SaPHyRa_bc pipeline: bi-component/PISP sampling, 2-hop exact
/// subspace, empirical-Bernstein adaptive sampling, personalized VC cap.
///
/// `isp` can be shared across many subsets of the same graph (it is
/// A-independent); building it once amortizes the O(n + m) decomposition,
/// mirroring how the paper's experiments rank 1000 subsets per network.
///
/// Returns estimates satisfying Pr[∀v∈A: |b̃c(v) − bc(v)| < ε] ≥ 1 − δ
/// (Theorem 24), with bc normalized per Eq. 3.
SaphyraBcResult RunSaphyraBc(const IspIndex& isp,
                             const std::vector<NodeId>& targets,
                             const SaphyraBcOptions& options);

/// \brief SaPHyRa_bc-full: the whole network as the target set (the
/// configuration the paper calls "SaPHyRa_bc-full").
SaphyraBcResult RunSaphyraBcFull(const IspIndex& isp,
                                 const SaphyraBcOptions& options);

/// \brief The Gen_bc sampling problem of RunSaphyraBc as a standalone
/// object: same personalized space, same rejection sampling, same RNG
/// consumption per sample. Shard worker processes use this to replay
/// stripe draws bit-for-bit without running the exact phase (the returned
/// problem's ComputeExactRisks/VcDimension are functional but unused
/// worker-side). Only `strategy`, `traversal` and `use_exact_subspace`
/// of `options` affect sampling.
std::unique_ptr<HypothesisRankingProblem> MakeSaphyraBcSamplingProblem(
    const IspIndex& isp, const std::vector<NodeId>& targets,
    const SaphyraBcOptions& options);

}  // namespace saphyra

#endif  // SAPHYRA_BC_SAPHYRA_BC_H_
