#include "graph/bfs.h"

#include <algorithm>

namespace saphyra {

BfsResult Bfs(const Graph& g, NodeId source) {
  BfsResult r;
  r.dist.assign(g.num_nodes(), kUnreachable);
  r.order.reserve(g.num_nodes());
  r.dist[source] = 0;
  r.order.push_back(source);
  for (size_t head = 0; head < r.order.size(); ++head) {
    NodeId u = r.order[head];
    uint32_t du = r.dist[u];
    for (NodeId v : g.neighbors(u)) {
      if (r.dist[v] == kUnreachable) {
        r.dist[v] = du + 1;
        r.order.push_back(v);
      }
    }
  }
  return r;
}

BfsKernel::BfsKernel(const Graph& g, TraversalPolicy policy)
    : g_(g),
      policy_(policy),
      dist_(g.num_nodes(), kUnreachable),
      sigma_(g.num_nodes(), 0.0),
      order_(g.num_nodes()),
      frontier_bits_(g.num_nodes()),
      unvisited_(g.num_nodes()) {}

void BfsKernel::Run(NodeId source) {
  std::fill(dist_.begin(), dist_.end(), kUnreachable);
  unvisited_valid_ = false;
  bottom_up_levels_ = 0;
  dist_[source] = 0;
  sigma_[source] = 1.0;
  order_size_ = 0;
  order_[order_size_++] = source;
  const bool hybrid = policy_ != TraversalPolicy::kTopDown;
  frontier_arcs_ = g_.degree(source);  // exact for the source level
  explored_arcs_ = 0;
  size_t level_begin = 0;
  for (uint32_t depth = 1; level_begin < order_size_; ++depth) {
    const size_t level_end = order_size_;
    bool pull = false;
    if (hybrid) {
      // Decide the direction. mu_remaining counts the arcs of everything
      // not yet *expanded* (current frontier + unexplored); the pull also
      // charges the candidate list (O(n) build on the first pull, current
      // length afterwards). When only the |frontier| × max-degree upper
      // bound of the frontier mass is known, a failing precheck on the
      // bound proves the exact test would fail too — the common case on
      // bounded-degree graphs, skipped without any degree pass.
      const uint64_t overhead =
          unvisited_valid_ ? unvisited_size_ : g_.num_nodes();
      const uint64_t mu_remaining = g_.num_arcs() - explored_arcs_;
      uint64_t mf = frontier_arcs_;
      if (mf == kUnknownMass) {
        const uint64_t mf_ub =
            std::min<uint64_t>(static_cast<uint64_t>(level_end - level_begin) *
                                   g_.max_degree(),
                               mu_remaining);
        if (DirectionHeuristic::PreferBottomUp(
                mf_ub, mu_remaining - mf_ub + overhead)) {
          mf = 0;  // plausible: pay one degree pass for the exact mass
          for (size_t i = level_begin; i < level_end; ++i) {
            mf += g_.degree(order_[i]);
          }
          frontier_arcs_ = mf;
        }
      }
      if (mf != kUnknownMass &&
          DirectionHeuristic::PreferBottomUp(mf,
                                             mu_remaining - mf + overhead)) {
        pull = true;
      }
    }
    if (pull) {
      // The frontier's own arcs are never scanned by the pull; account
      // them as expanded using the exact mass computed above.
      explored_arcs_ += frontier_arcs_;
      ExpandBottomUp(depth, level_begin, level_end);
      ++bottom_up_levels_;
    } else {
      const uint64_t scanned = ExpandTopDown(depth, level_begin, level_end);
      explored_arcs_ += scanned;  // scanned == this frontier's exact mass
      frontier_arcs_ = kUnknownMass;  // new level's mass: not yet known
    }
    level_begin = level_end;
  }
}

uint64_t BfsKernel::ExpandTopDown(uint32_t new_depth, size_t level_begin,
                                  size_t level_end) {
  NodeId* order = order_.data();
  size_t out = order_size_;
  uint64_t scanned = 0;
  auto visit = [&](NodeId v, double su) {
    if (dist_[v] == kUnreachable) {
      dist_[v] = new_depth;
      sigma_[v] = su;
      order[out++] = v;
    } else if (dist_[v] == new_depth) {
      sigma_[v] += su;
    }
  };
  for (size_t fi = level_begin; fi < level_end; ++fi) {
    const NodeId u = order[fi];
    const double su = sigma_[u];
    // No prefetching here, deliberately: the hot random access is a 4-byte
    // dist entry whose working set is dense, and on bounded-degree graphs
    // even computing a lookahead address costs more than it hides. Dense
    // hub levels — where latency would bite — are exactly the levels the
    // bottom-up pull takes over.
    const auto nbr = g_.neighbors(u);
    scanned += nbr.size();
    for (NodeId v : nbr) visit(v, su);
  }
  order_size_ = out;
  return scanned;
}

void BfsKernel::ExpandBottomUp(uint32_t new_depth, size_t level_begin,
                               size_t level_end) {
  // Candidate list: built on the first pull of this run, compacted on
  // every pull (survivors stay, vertices stamped since last pull drop out).
  if (!unvisited_valid_) {
    size_t k = 0;
    for (NodeId v = 0; v < g_.num_nodes(); ++v) {
      if (dist_[v] == kUnreachable) unvisited_[k++] = v;
    }
    unvisited_size_ = k;
    unvisited_valid_ = true;
  }
  // Mark the current frontier in the FrontierSet bitmap: one bit probe per
  // scanned arc below instead of a dist-line touch.
  frontier_bits_.BeginEpoch();
  for (size_t i = level_begin; i < level_end; ++i) {
    frontier_bits_.Mark(order_[i]);
  }
  NodeId* order = order_.data();
  size_t out = order_size_;
  uint64_t cost = 0;
  NodeId* cand = unvisited_.data();
  size_t remaining = 0;
  for (size_t i = 0; i < unvisited_size_; ++i) {
    const NodeId v = cand[i];
    if (dist_[v] != kUnreachable) continue;  // stamped by a top-down level
    if (i + 4 < unvisited_size_) {
      __builtin_prefetch(g_.neighbors(cand[i + 4]).data(), 0, 2);
    }
    // σ needs the full parent mass: scan every arc, no early exit.
    const auto nbr = g_.neighbors(v);
    double acc = 0.0;
    for (NodeId u : nbr) {
      if (frontier_bits_.Test(u)) acc += sigma_[u];
    }
    if (acc != 0.0) {
      dist_[v] = new_depth;
      sigma_[v] = acc;
      order[out++] = v;
      cost += nbr.size();  // deg(v), already in hand
    } else {
      cand[remaining++] = v;
    }
  }
  unvisited_size_ = remaining;
  order_size_ = out;
  frontier_arcs_ = cost;  // the pull knows its new level's mass exactly
}

SpDag BfsWithCounts(const Graph& g, NodeId source, TraversalPolicy policy) {
  BfsKernel kernel(g, policy);
  kernel.Run(source);
  SpDag r;
  r.dist.assign(g.num_nodes(), kUnreachable);
  r.sigma.assign(g.num_nodes(), 0.0);
  r.order.assign(kernel.order().begin(), kernel.order().end());
  for (NodeId v : r.order) {
    r.dist[v] = kernel.dist(v);
    r.sigma[v] = kernel.sigma(v);
  }
  return r;
}

uint32_t Eccentricity(const Graph& g, NodeId source) {
  BfsResult r = Bfs(g, source);
  uint32_t ecc = 0;
  for (uint32_t d : r.dist) {
    if (d != kUnreachable) ecc = std::max(ecc, d);
  }
  return ecc;
}

uint32_t TwoSweepDiameterLowerBound(const Graph& g, NodeId seed) {
  if (g.num_nodes() == 0) return 0;
  BfsResult first = Bfs(g, seed);
  NodeId far = seed;
  uint32_t best = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (first.dist[v] != kUnreachable && first.dist[v] > best) {
      best = first.dist[v];
      far = v;
    }
  }
  return Eccentricity(g, far);
}

uint32_t DiameterUpperBound(const Graph& g, NodeId seed) {
  if (g.num_nodes() == 0) return 0;
  return 2 * Eccentricity(g, seed);
}

uint32_t ExactDiameter(const Graph& g) {
  uint32_t diam = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    diam = std::max(diam, Eccentricity(g, v));
  }
  return diam;
}

}  // namespace saphyra
