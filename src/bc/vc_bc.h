#ifndef SAPHYRA_BC_VC_BC_H_
#define SAPHYRA_BC_VC_BC_H_

#include <cstdint>

#include "bicomp/isp.h"

namespace saphyra {

/// Personalized VC-dimension bounds for RSP_bc (§IV-C, Table I).
///
/// π(p) — the number of hypotheses a path p hits — is the number of target
/// nodes among p's inner nodes, so πmax = BS(A), and Lemma 5 gives
/// VC(H_c^(A)) ≤ ⌊log₂ BS(A)⌋ + 1 (Corollary 22). BS(A) itself is bounded
/// per component (Lemma 23) by
///   min( VD(C_i) − 1,  VD(A ∩ C_i) + 1,  |A ∩ C_i| ).
/// Exact diameters are too expensive, so the bounds below use the sound
/// 2·eccentricity upper bound from a single BFS per component over its
/// compact view (IspIndex::views()), exactly as the paper suggests
/// ("VD(A′) cannot be bigger than double of the maximum distance from s to
/// a node t ∈ A′").
struct VcBcBounds {
  /// Upper bound on BS(A) (0 if no component can host a target inner node).
  double bs_bound = 0.0;
  /// VC bound = ⌊log₂ bs⌋ + 1 (≥ 1 whenever bs ≥ 1).
  double vc_bound = 0.0;
  /// max_i over I(A) of the VD(C_i) upper bound (bi-component diameter).
  uint32_t bd_upper = 0;
  /// max_i over I(A) of the VD(A∩C_i) upper bound.
  uint32_t sd_upper = 0;
};

/// \brief Personalized bounds for the subset of `space` (Corollary 22 +
/// Lemma 23). Runs one BFS per component in I(A), on its view.
VcBcBounds ComputePersonalizedVcBounds(const PersonalizedSpace& space);

/// \brief Full-network SaPHyRa_bc bound: ⌊log₂(BD(V)−1)⌋ + 1 with BD(V)
/// the maximum bi-component diameter (Table I row 2, column 1).
/// One BFS per component, on its view: O(Σ|C_i| + m) total.
double FullNetworkVcBound(const IspIndex& isp, uint32_t* bd_upper = nullptr);

/// \brief Riondato–Kornaropoulos-style bound used by the baselines
/// (Table I row 1): ⌊log₂(VD(V)−1)⌋ + 1 on the *whole-graph* diameter,
/// using the 2·eccentricity upper bound.
double RiondatoVcBound(const Graph& g);

}  // namespace saphyra

#endif  // SAPHYRA_BC_VC_BC_H_
