#include "bc/vc_bc.h"

#include <algorithm>
#include <cmath>

#include "graph/bfs.h"
#include "stats/vc.h"
#include "util/logging.h"

namespace saphyra {

namespace {

/// BFS from local node `source` over component `comp`'s view. Returns the
/// eccentricity within the component and, if `space` is non-null, the
/// maximum distance to any reached target (HypothesisIndex >= 0). The
/// scratch grows to the largest component run, never to n.
struct ViewBfs {
  uint32_t Run(const ComponentViews& views, uint32_t comp, NodeId source,
               const PersonalizedSpace* space, uint32_t* max_target_dist) {
    if (dist.size() < views.size(comp)) {
      dist.resize(views.size(comp), kUnreachable);
    }
    queue.clear();
    dist[source] = 0;
    queue.push_back(source);
    uint32_t ecc = 0;
    uint32_t tgt = 0;
    for (size_t head = 0; head < queue.size(); ++head) {
      const NodeId u = queue[head];
      const uint32_t du = dist[u];
      ecc = std::max(ecc, du);
      if (space != nullptr &&
          space->HypothesisIndex(views.ToGlobal(comp, u)) >= 0) {
        tgt = std::max(tgt, du);
      }
      for (NodeId v : views.Neighbors(comp, u)) {
        if (dist[v] == kUnreachable) {
          dist[v] = du + 1;
          queue.push_back(v);
        }
      }
    }
    for (NodeId v : queue) dist[v] = kUnreachable;  // cheap reset
    if (max_target_dist != nullptr) *max_target_dist = tgt;
    return ecc;
  }

  std::vector<uint32_t> dist;
  std::vector<NodeId> queue;
};

double VcFromBs(double bs) {
  if (bs < 1.0) return 0.0;
  return PiMaxVcBound(static_cast<uint64_t>(bs));
}

}  // namespace

VcBcBounds ComputePersonalizedVcBounds(const PersonalizedSpace& space) {
  const IspIndex& isp = space.isp();
  const ComponentViews& views = isp.views();
  const auto& bcc = isp.bcc();
  VcBcBounds out;

  // Per-component target counts |A ∩ C_i| and a representative target.
  std::vector<uint32_t> a_count(bcc.num_components, 0);
  std::vector<NodeId> a_rep(bcc.num_components, kInvalidNode);
  for (NodeId v : space.targets()) {
    for (uint32_t c : isp.ComponentsOf(v)) {
      ++a_count[c];
      if (a_rep[c] == kInvalidNode) a_rep[c] = v;
    }
  }

  ViewBfs bfs;
  double bs = 0.0;
  for (uint32_t c : space.component_ids()) {
    if (views.size(c) < 3) continue;  // a bridge has no inner nodes
    // One BFS from a target member gives both an upper bound on VD(C_i)
    // (2·ecc) and on VD(A ∩ C_i) (2·max distance to a target).
    uint32_t max_tgt = 0;
    uint32_t ecc =
        bfs.Run(views, c, views.ToLocal(c, a_rep[c]), &space, &max_tgt);
    uint32_t vd_ci_ub = 2 * ecc;
    uint32_t vd_a_ub = 2 * max_tgt;
    out.bd_upper = std::max(out.bd_upper, vd_ci_ub);
    out.sd_upper = std::max(out.sd_upper, vd_a_ub);
    double term = std::min(
        {static_cast<double>(vd_ci_ub) - 1.0,
         static_cast<double>(vd_a_ub) + 1.0, static_cast<double>(a_count[c])});
    bs = std::max(bs, std::max(0.0, term));
  }
  out.bs_bound = bs;
  out.vc_bound = VcFromBs(bs);
  return out;
}

double FullNetworkVcBound(const IspIndex& isp, uint32_t* bd_upper) {
  const ComponentViews& views = isp.views();
  ViewBfs bfs;
  uint32_t bd = 0;
  for (uint32_t c = 0; c < views.num_components(); ++c) {
    if (views.size(c) < 3) continue;
    uint32_t ecc = bfs.Run(views, c, 0, nullptr, nullptr);
    bd = std::max(bd, 2 * ecc);
  }
  if (bd_upper != nullptr) *bd_upper = bd;
  if (bd <= 1) return 0.0;
  return VcFromBs(static_cast<double>(bd) - 1.0);
}

double RiondatoVcBound(const Graph& g) {
  if (g.num_nodes() == 0) return 0.0;
  // Seed the eccentricity bound from the far node of a double sweep, which
  // tightens 2·ecc substantially in practice.
  BfsResult first = Bfs(g, 0);
  NodeId far = 0;
  uint32_t best = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (first.dist[v] != kUnreachable && first.dist[v] >= best) {
      best = first.dist[v];
      far = v;
    }
  }
  uint32_t vd_ub = 2 * Eccentricity(g, far);
  if (vd_ub <= 1) return 0.0;
  return std::floor(std::log2(static_cast<double>(vd_ub) - 1.0)) + 1.0;
}

}  // namespace saphyra
