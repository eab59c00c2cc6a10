#ifndef SAPHYRA_BC_EXACT_SUBSPACE_H_
#define SAPHYRA_BC_EXACT_SUBSPACE_H_

#include <vector>

#include "bicomp/isp.h"
#include "graph/graph.h"

namespace saphyra {

/// \brief Output of the Exact_bc oracle (§IV-B, Lemma 17).
struct ExactSubspaceResult {
  /// ℓ̂_v per target (hypothesis order of the PersonalizedSpace): the
  /// expected risk of h_v restricted to the 2-hop exact subspace X̂_c^(A),
  /// under the PISP distribution D_c^(A).
  std::vector<double> exact_risks;
  /// λ̂ = Pr_{x∼D_c^(A)}[x ∈ X̂_c^(A)].
  double lambda_hat = 0.0;
};

/// \brief Exact_bc: exact risks over the 2-hop exact subspace.
///
/// The exact subspace X̂ (Eq. 29) is the set of length-2 intra-component
/// shortest paths with an inner node in A. For every ordered pair (s,t) at
/// distance 2 whose two-hop connections run inside one biconnected
/// component, the pair mass is q_st/(σ_st·γ·η) per path; summing over the
/// σ^A_st paths whose middle lies in A yields both λ̂ and, per middle v,
/// the contribution to ℓ̂_v.
///
/// Every source is drawn from B = the neighbors of A: any 2-hop path with a
/// middle in A starts (and ends) at a neighbor of that middle, and any
/// shortest path witnessing R(h_v) > 0 contains such a 2-hop subpath, which
/// is why the exact subspace eliminates false zeros (Lemma 19).
///
/// For each s ∈ B the targets T_s (the t with σ^A_st > 0) come from the
/// middles in N(s) ∩ A alone. The other middles are counted without an arc
/// label test: when s and t are not adjacent and share a block, every
/// common neighbor w of s and t lies in that block (s–v–t–w–s is a simple
/// cycle), so σ_st = |N(s) ∩ N(t)|. Each middle w ∉ A is intersected with
/// T_s from the smaller side (scan N(w), or binary-search each t ∈ T_s in
/// N(w)), as in degree-ordered wedge listing (Chiba & Nishizeki, SIAM J.
/// Comput. 1985).
///
/// Runs in O(Σ_{s∈B} (deg s + Σ_{v∈N(s)∩A} deg v
///   + Σ_{w∈N(s)∖A} min(deg w, |T_s|·log deg w) + |T_s| log |T_s|)) time
/// and O(n) space; with A = V this is the O(K) of Lemma 18.
ExactSubspaceResult ComputeExactSubspace(const PersonalizedSpace& space);

/// \brief True iff path (s, mid, t) lies in the exact subspace of `space`:
/// d(s,t) = 2 via an intra-component 2-hop path and mid ∈ A. Shared by the
/// rejection step of Gen_bc (Algorithm 2 line 6) and the tests.
bool InExactSubspace(const PersonalizedSpace& space,
                     const std::vector<NodeId>& path_nodes);

}  // namespace saphyra

#endif  // SAPHYRA_BC_EXACT_SUBSPACE_H_
