#include "bc/exact_subspace.h"

#include <algorithm>

#include "util/logging.h"

namespace saphyra {

namespace {

/// A middle w ∉ A counts its 2-hop targets by scanning N(w) while deg w is
/// below this many times |T_s|, and by binary-searching each t ∈ T_s in
/// N(w) beyond it (a search costs about log₂ deg w probes per target).
constexpr size_t kScanPerTarget = 32;

}  // namespace

ExactSubspaceResult ComputeExactSubspace(const PersonalizedSpace& space) {
  const IspIndex& isp = space.isp();
  const Graph& g = isp.graph();
  const auto& bcc = isp.bcc();
  const NodeId n = g.num_nodes();
  const size_t k = space.targets().size();

  ExactSubspaceResult out;
  out.exact_risks.assign(k, 0.0);
  const double denom = isp.total_weight() * space.eta();
  if (denom <= 0.0) return out;  // empty personalized space

  // B: all neighbors of target nodes (candidate 2-hop endpoints).
  std::vector<uint8_t> in_b(n, 0);
  std::vector<NodeId> sources;
  for (NodeId a : space.targets()) {
    for (NodeId w : g.neighbors(a)) {
      if (!in_b[w]) {
        in_b[w] = 1;
        sources.push_back(w);
      }
    }
  }

  // Per-node state for the current source s, in one record so a visit to
  // t touches one cache line.
  constexpr uint32_t kNoStamp = static_cast<uint32_t>(-1);
  struct NodeState {
    uint32_t nbr_stamp = kNoStamp;   // "t == s or t adjacent to s" marker
    uint32_t pair_stamp = kNoStamp;  // "t ∈ T_s" marker
    uint32_t comp = 0;               // block of the (s,t) pair
    uint32_t sigma_a = 0;            // σ^A_st: middles in A
    uint32_t sigma = 0;              // σ_st: all middles
    uint32_t first_mid = 0;  // position in N(s) of t's first middle
  };
  std::vector<NodeState> st(n);
  std::vector<NodeId> found;  // T_s

  double lambda_scaled = 0.0;  // λ̂ · n(n−1)·γ·η
  std::vector<double> exact_scaled(k, 0.0);

  for (uint32_t sidx = 0; sidx < sources.size(); ++sidx) {
    const NodeId s = sources[sidx];
    for (NodeId w : g.neighbors(s)) st[w].nbr_stamp = sidx;
    st[s].nbr_stamp = sidx;  // exclude s itself the same way
    found.clear();

    // Pass 1: enumerate 2-hop walks s→v→t with v ∈ A whose two edges
    // share a biconnected component. This finds T_s, σ^A_st, and the
    // A-middles' share of σ_st. Walks with t adjacent to s are not
    // shortest (d(s,t)=1) and are skipped.
    const EdgeIndex s_base = g.offset(s);
    const auto s_nbr = g.neighbors(s);
    for (size_t i = 0; i < s_nbr.size(); ++i) {
      const NodeId v = s_nbr[i];
      if (space.HypothesisIndex(v) < 0) continue;
      const uint32_t c1 = bcc.arc_component[s_base + i];
      const EdgeIndex v_base = g.offset(v);
      const auto v_nbr = g.neighbors(v);
      for (size_t j = 0; j < v_nbr.size(); ++j) {
        const NodeId t = v_nbr[j];
        NodeState& ts = st[t];
        if (ts.nbr_stamp == sidx) continue;                 // d(s,t) ≤ 1
        if (bcc.arc_component[v_base + j] != c1) continue;  // crosses comps
        if (ts.pair_stamp != sidx) {
          ts.pair_stamp = sidx;
          ts.comp = c1;
          ts.sigma_a = 0;
          ts.sigma = 0;
          ts.first_mid = static_cast<uint32_t>(i);
          found.push_back(t);
        }
        // Two biconnected components share at most one node, so a valid
        // (s,t) pair cannot appear under two different components.
        SAPHYRA_CHECK(ts.comp == c1);
        ++ts.sigma_a;
        ++ts.sigma;
      }
    }
    if (found.empty()) continue;

    // Pass 2: the middles w ∉ A. For t ∈ T_s every common neighbor of s
    // and t lies in the pair's block (s–v–t–w–s is a cycle), so σ_st =
    // |N(s) ∩ N(t)| and w counts for each t ∈ T_s ∩ N(w), found from
    // whichever of N(w) and T_s is smaller. A middle ahead of t's first
    // A-middle in N(s) moves t's first discovery earlier.
    bool reordered = false;
    for (size_t i = 0; i < s_nbr.size(); ++i) {
      const NodeId w = s_nbr[i];
      if (space.HypothesisIndex(w) >= 0) continue;
      const uint32_t c1 = bcc.arc_component[s_base + i];
      const auto count = [&](NodeId t) {
        NodeState& ts = st[t];
        SAPHYRA_CHECK(ts.comp == c1);
        ++ts.sigma;
        if (i < ts.first_mid) {
          ts.first_mid = static_cast<uint32_t>(i);
          reordered = true;
        }
      };
      const auto w_nbr = g.neighbors(w);
      if (w_nbr.size() < kScanPerTarget * found.size()) {
        for (NodeId t : w_nbr) {
          if (st[t].pair_stamp == sidx) count(t);
        }
      } else {
        for (NodeId t : found) {
          if (std::binary_search(w_nbr.begin(), w_nbr.end(), t)) count(t);
        }
      }
    }
    // λ̂ sums in the order of first discovery over (position of the middle
    // in N(s), position of t in N(middle)); adjacency lists are sorted, so
    // that is (first_mid, t).
    if (reordered) {
      std::sort(found.begin(), found.end(), [&](NodeId a, NodeId b) {
        return st[a].first_mid != st[b].first_mid
                   ? st[a].first_mid < st[b].first_mid
                   : a < b;
      });
    }

    // λ̂ contribution of every ordered pair (s, t): the fraction of its
    // σ_st shortest paths whose middle is in A, weighted by the pair mass
    // q_st (scaled by n(n−1): q̃ = r_c(s)·r_c(t)).
    for (NodeId t : found) {
      const NodeState& ts = st[t];
      const double q_scaled =
          static_cast<double>(isp.OutReach(ts.comp, s)) *
          static_cast<double>(isp.OutReach(ts.comp, t));
      lambda_scaled += q_scaled * static_cast<double>(ts.sigma_a) /
                       static_cast<double>(ts.sigma);
    }

    // Credit each middle v ∈ A with its share of every pair:
    // ℓ̂_v += q_st/σ_st for each ordered pair (s,t) routed through v.
    for (size_t i = 0; i < s_nbr.size(); ++i) {
      const NodeId v = s_nbr[i];
      const int32_t h = space.HypothesisIndex(v);
      if (h < 0) continue;
      const uint32_t c1 = bcc.arc_component[s_base + i];
      const double r_s = static_cast<double>(isp.OutReach(c1, s));
      const EdgeIndex v_base = g.offset(v);
      const auto v_nbr = g.neighbors(v);
      for (size_t j = 0; j < v_nbr.size(); ++j) {
        const NodeId t = v_nbr[j];
        const NodeState& ts = st[t];
        if (ts.nbr_stamp == sidx) continue;
        if (bcc.arc_component[v_base + j] != c1) continue;
        SAPHYRA_CHECK(ts.pair_stamp == sidx && ts.comp == c1);
        exact_scaled[h] += r_s * static_cast<double>(isp.OutReach(c1, t)) /
                           static_cast<double>(ts.sigma);
      }
    }
  }

  out.lambda_hat = lambda_scaled / denom;
  for (size_t h = 0; h < k; ++h) {
    out.exact_risks[h] = exact_scaled[h] / denom;
  }
  return out;
}

bool InExactSubspace(const PersonalizedSpace& space,
                     const std::vector<NodeId>& path_nodes) {
  // Paths handed in are already intra-component PISP samples; membership in
  // X̂ (Eq. 29) then reduces to: length 2 and the middle node is a target.
  return path_nodes.size() == 3 &&
         space.HypothesisIndex(path_nodes[1]) >= 0;
}

}  // namespace saphyra
