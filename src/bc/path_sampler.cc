#include "bc/path_sampler.h"

#include <algorithm>
#include <span>

#include "util/logging.h"

namespace saphyra {

// The traversal core is templated over one of two adjacency adapters, each
// exposing its neighbor lists as contiguous spans:
//   DomainSize()/DomainArcs() — the compact vertex domain local ids range
//                               over and its directed arc total (the
//                               direction heuristic and the bottom-up
//                               candidate scan need both),
//   ArcsOf(u)                 — u's neighbor list,
//   PrefetchNode(u)           — warm u's CSR row before expansion,
//   Cost(u)                   — arc mass for frontier balancing.
// They stay at namespace scope, not in an anonymous namespace: with
// external linkage GCC keeps the instantiated template chain out of line,
// and SampleUniformPath remains a small dispatcher.

/// Unrestricted traversal over the global CSR.
struct GlobalAdj {
  const Graph* g;
  NodeId DomainSize() const { return g->num_nodes(); }
  uint64_t DomainArcs() const { return g->num_arcs(); }
  std::span<const NodeId> ArcsOf(NodeId u) const { return g->neighbors(u); }
  void PrefetchNode(NodeId u) const {
    __builtin_prefetch(g->neighbors(u).data(), 0, 2);
  }
  uint64_t Cost(NodeId u) const { return g->degree(u); }
};

/// Traversal over one component's compact CSR view, in local ids.
struct ViewAdj {
  const ComponentViews* views;
  uint32_t comp;
  NodeId DomainSize() const { return views->size(comp); }
  uint64_t DomainArcs() const { return views->num_arcs(comp); }
  std::span<const NodeId> ArcsOf(NodeId u) const {
    return views->Neighbors(comp, u);
  }
  void PrefetchNode(NodeId u) const { views->PrefetchOffsets(comp, u); }
  uint64_t Cost(NodeId u) const { return views->Degree(comp, u); }
};

PathSampler::PathSampler(const Graph& g, const ComponentViews* views)
    : g_(g),
      views_(views),
      regular_domain_(g.max_degree() <= kRegularGraphMaxDegree) {}

void PathSampler::ReserveScratch(NodeId domain) {
  if (domain <= scratch_size_) return;
  // Fresh slots carry epoch 0, which no open epoch ever equals, so they
  // read as unvisited; the frontiers are cleared by InitSide anyway.
  for (Side* side : {&fwd_, &bwd_}) {
    side->state.resize(domain, NodeState{0, kNoDist, 0.0});
    side->frontier.Reset(domain);
    side->next.Reset(domain);
    side->unvisited.resize(domain);
  }
  scratch_size_ = domain;
}

void PathSampler::InitSide(Side* side, NodeId origin, uint64_t origin_cost) {
  side->origin = origin;
  side->depth = 0;
  side->state[origin] = NodeState{epoch_, 0, 1.0};
  side->frontier.Clear();
  side->frontier.Push(origin);
  side->frontier_cost = origin_cost;
  side->explored_cost = origin_cost;
  side->unvisited_valid = false;
}

template <class Adj>
bool PathSampler::ExpandLevel(const Adj& adj, Side* side, const Side* other) {
  const uint32_t new_depth = side->depth + 1;
  const bool hybrid = traversal_ != TraversalPolicy::kTopDown;
  // Direction-optimizing dispatch: pull when this side's frontier carries
  // enough of the domain's still-unexplored arc mass. The first pull of a
  // search must also build the candidate list — an O(domain) scan — so
  // that cost is charged up front; once the list exists only its current
  // length is charged. The heuristic sees only set sizes, and both
  // expansions produce the identical new level (same membership, same
  // dist, exact same σ — integer-valued doubles), so the policy never
  // changes what is sampled, only how fast.
  if (hybrid) {
    const uint64_t pull_overhead =
        side->unvisited_valid ? side->unvisited_size : domain_size_;
    if (DirectionHeuristic::PreferBottomUp(
            side->frontier_cost,
            domain_arcs_ - side->explored_cost + pull_overhead)) {
      ExpandLevelBottomUp(adj, side, other, new_depth);
      ++bottom_up_levels_;
      side->depth = new_depth;
      return !side->frontier.empty();
    }
  }
  NodeId* next = side->next.data();
  size_t cnt = 0;
  double su = 0.0;  // σ of the frontier node being expanded
  auto visit = [&](NodeId v) {
    NodeState& sv = side->state[v];
    if (sv.epoch != epoch_) {
      // First touch this epoch: v joins the new level with σ = σ(u).
      sv = NodeState{epoch_, new_depth, su};
      next[cnt++] = v;
      // Bidirectional meeting test, folded into discovery: one random load
      // per *new* node beats a separate post-expansion pass over the
      // frontier.
      if (other != nullptr && other->state[v].epoch == epoch_) {
        meet_.push_back(v);
      }
    } else {
      // Already stamped: add σ(u) iff v sits on the level being built.
      // Selected, not branched — level membership is a coin flip here.
      sv.sigma += sv.dist == new_depth ? su : 0.0;
    }
  };
  const std::span<const NodeId> frontier = side->frontier.vertices();
  for (size_t fi = 0; fi < frontier.size(); ++fi) {
    const NodeId u = frontier[fi];
    if (fi + 2 < frontier.size()) {
      adj.PrefetchNode(frontier[fi + 2]);
    }
    // One extra slot of lookahead on the node's own state line: its σ is
    // the first read of every expansion, and the address comes straight
    // off the sparse frontier list (no CSR row computation needed).
    if (fi + 8 < frontier.size()) {
      __builtin_prefetch(&side->state[frontier[fi + 8]], 0, 3);
    }
    su = side->state[u].sigma;
    // Prefetch the packed per-node state a few arcs ahead — the only
    // non-sequential access of the loop. The loop is split so the steady
    // state carries no bounds check for the prefetch slot.
    const auto nbr = adj.ArcsOf(u);
    arcs_scanned_ += nbr.size();
    constexpr size_t kLookahead = 8;
    const size_t n = nbr.size();
    size_t i = 0;
    if (n > kLookahead) {
      for (; i + kLookahead < n; ++i) {
        __builtin_prefetch(&side->state[nbr[i + kLookahead]], 1, 3);
        visit(nbr[i]);
      }
    }
    for (; i < n; ++i) visit(nbr[i]);
  }
  side->frontier.Swap(side->next);
  side->frontier.set_size(cnt);
  // Arc mass of the level just built, for the bidirectional balance and
  // the direction heuristic. Near-regular domains (grids: max spread of a
  // factor ~LevelCostEstimate threshold around the mean) use the free
  // |frontier| × avg-degree estimate; skewed domains pay one tight pass
  // over the new frontier — the sharp per-node balance that matters
  // exactly when degrees are skewed. (The seed rescanned *both* frontiers
  // every balancing round.) The pass/estimate is skipped whenever its
  // result is dead: once a meeting is found this was the final level, and
  // a pure top-down unidirectional search never consults costs at all.
  uint64_t cost = 0;
  if ((other != nullptr && meet_.empty()) || (hybrid && other == nullptr)) {
    if (!LevelCostEstimate(cnt, &cost)) {
      const NodeId* f = side->frontier.data();
      for (size_t i = 0; i < cnt; ++i) cost += adj.Cost(f[i]);
    }
  }
  side->frontier_cost = cost;
  side->explored_cost += cost;
  side->depth = new_depth;
  return cnt != 0;
}

/// Bottom-up pull of one BFS level: instead of pushing the frontier's
/// arcs, scan each still-unvisited vertex of the (compact) domain and sum
/// σ over its parents on the current frontier, probed through the
/// FrontierSet bitmap — one bit test per arc instead of a 16-byte state
/// touch. No early exit: σ needs every parent's mass. Newly discovered
/// vertices come out in ascending id order; since σ sums are exact and
/// the meet set is sorted before use, this changes nothing downstream.
template <class Adj>
void PathSampler::ExpandLevelBottomUp(const Adj& adj, Side* side,
                                      const Side* other, uint32_t new_depth) {
  const NodeId domain = domain_size_;
  if (!side->unvisited_valid) {
    size_t k = 0;
    for (NodeId v = 0; v < domain; ++v) {
      if (side->state[v].epoch != epoch_) side->unvisited[k++] = v;
    }
    side->unvisited_size = k;
    side->unvisited_valid = true;
  }
  // Mark the current frontier in the FrontierSet bitmap: one bit probe
  // per scanned arc below instead of a 16-byte state-line touch.
  side->frontier.BeginEpoch();
  side->frontier.MarkSparse();
  NodeId* next = side->next.data();
  size_t cnt = 0;
  uint64_t cost = 0;
  NodeId* cand = side->unvisited.data();
  size_t remaining = 0;
  for (size_t i = 0; i < side->unvisited_size; ++i) {
    const NodeId v = cand[i];
    NodeState& sv = side->state[v];
    if (sv.epoch == epoch_) continue;  // stamped by a top-down level
    if (i + 4 < side->unvisited_size) adj.PrefetchNode(cand[i + 4]);
    const auto nbr = adj.ArcsOf(v);
    arcs_scanned_ += nbr.size();
    double acc = 0.0;
    for (NodeId u : nbr) {
      if (side->frontier.Test(u)) acc += side->state[u].sigma;
    }
    if (acc != 0.0) {
      sv = NodeState{epoch_, new_depth, acc};
      next[cnt++] = v;
      cost += nbr.size();  // Cost(v) == deg(v), already in hand — free
      if (other != nullptr && other->state[v].epoch == epoch_) {
        meet_.push_back(v);
      }
    } else {
      cand[remaining++] = v;
    }
  }
  side->unvisited_size = remaining;
  side->frontier.Swap(side->next);
  side->frontier.set_size(cnt);
  // The exact mass came for free above, but the balance value must be
  // policy-independent (a top-down expansion of the same level may have
  // estimated it): apply the identical estimate rule.
  uint64_t est = 0;
  if (LevelCostEstimate(cnt, &est)) cost = est;
  side->frontier_cost = cost;
  side->explored_cost += cost;
}

template <class Adj>
void PathSampler::WalkDown(const Adj& adj, const Side& side, NodeId v,
                           Rng* rng, std::vector<NodeId>* out) {
  NodeId cur = v;
  while (side.state[cur].dist > 1) {
    const uint32_t want = side.state[cur].dist - 1;
    // Weighted reservoir over predecessors: pick u with prob σ(u)/Σσ.
    double total = 0.0;
    NodeId pick = kInvalidNode;
    auto consider = [&](NodeId u) {
      const NodeState& su = side.state[u];
      if (su.epoch != epoch_ || su.dist != want) return;
      total += su.sigma;
      if (rng->UniformDouble() * total < su.sigma) pick = u;
    };
    // Path nodes are biased toward high degree, so this scan is a real
    // share of the per-sample cost; prefetch like ExpandLevel does.
    const auto nbr = adj.ArcsOf(cur);
    constexpr size_t kLookahead = 8;
    const size_t n = nbr.size();
    size_t i = 0;
    if (n > kLookahead) {
      for (; i + kLookahead < n; ++i) {
        __builtin_prefetch(&side.state[nbr[i + kLookahead]], 0, 3);
        consider(nbr[i]);
      }
    }
    for (; i < n; ++i) consider(nbr[i]);
    SAPHYRA_CHECK(pick != kInvalidNode);
    out->push_back(pick);
    cur = pick;
  }
  if (side.state[cur].dist == 1) {
    // The last hop is implied: the side's origin is the only node at
    // dist 0, with σ = 1, so the scan would find it alone and draw one
    // number to keep it. Draw that number and skip the scan, so the RNG
    // stream stays what the scan made it.
    static_cast<void>(rng->UniformDouble());
    out->push_back(side.origin);
  }
}

bool PathSampler::SampleUniformPath(NodeId s, NodeId t,
                                    SamplingStrategy strategy, Rng* rng,
                                    PathSample* out) {
  SAPHYRA_CHECK(s != t);
  SAPHYRA_CHECK(s < g_.num_nodes() && t < g_.num_nodes());
  ReserveScratch(g_.num_nodes());
  BeginSample(out);
  return Dispatch(GlobalAdj{&g_}, s, t, strategy, rng, out);
}

bool PathSampler::SampleRestrictedPath(uint32_t comp, NodeId s, NodeId t,
                                       SamplingStrategy strategy, Rng* rng,
                                       PathSample* out) {
  SAPHYRA_CHECK_MSG(views_ != nullptr,
                    "component restriction needs component views");
  SAPHYRA_CHECK(s != t);
  SAPHYRA_CHECK_MSG(s < views_->size(comp) && t < views_->size(comp),
                    "restricted endpoints must be local ids of the component");
  // Sized once for the largest block; size(comp) guards a max_size read
  // from a file that understates it.
  ReserveScratch(std::max(views_->max_component_size(), views_->size(comp)));
  BeginSample(out);
  if (!Dispatch(ViewAdj{views_, comp}, s, t, strategy, rng, out)) {
    return false;
  }
  for (NodeId& v : out->nodes) v = views_->ToGlobal(comp, v);
  return true;
}

void PathSampler::BeginSample(PathSample* out) {
  if (++epoch_ == 0) {
    // 32-bit epoch wrapped: wipe the stamps once and restart at 1.
    for (Side* side : {&fwd_, &bwd_}) {
      std::fill(side->state.begin(), side->state.end(),
                NodeState{0, kNoDist, 0.0});
    }
    epoch_ = 1;
  }
  arcs_scanned_ = 0;
  bottom_up_levels_ = 0;
  out->nodes.clear();
  out->num_paths = 0.0;
  out->length = 0;
  out->found = false;
}

template <class Adj>
bool PathSampler::Dispatch(const Adj& adj, NodeId s, NodeId t,
                           SamplingStrategy strategy, Rng* rng,
                           PathSample* out) {
  domain_size_ = adj.DomainSize();
  domain_arcs_ = adj.DomainArcs();
  if (strategy == SamplingStrategy::kBidirectional) {
    return SampleBidirectional(adj, s, t, rng, out);
  }
  return SampleUnidirectional(adj, s, t, rng, out);
}

template <class Adj>
bool PathSampler::SampleBidirectional(const Adj& adj, NodeId s, NodeId t,
                                      Rng* rng, PathSample* out) {
  InitSide(&fwd_, s, adj.Cost(s));
  InitSide(&bwd_, t, adj.Cost(t));
  // Grow the cheaper side one full level at a time. After each expansion,
  // any node of the new frontier already seen by the other side is a
  // "middle": completed BFS levels make both σ values final, and all
  // middles found in the same round sit on minimum-length paths (see the
  // meeting argument in DESIGN.md / KADABRA [12]).
  for (;;) {
    Side* grow = fwd_.frontier_cost <= bwd_.frontier_cost ? &fwd_ : &bwd_;
    const Side& other = (grow == &fwd_) ? bwd_ : fwd_;
    meet_.clear();
    if (!ExpandLevel(adj, grow, &other)) return false;  // t unreachable
    if (!meet_.empty()) break;
  }
  const uint32_t d = fwd_.depth + bwd_.depth;
  // Canonicalize the meet set: a top-down level appends middles in
  // discovery order, a bottom-up level in ascending id order. Sorting
  // before the weighted draw makes the RNG stream — and therefore the
  // sampled path for a fixed seed — independent of the expansion
  // direction (the sampled distribution is order-independent either way).
  std::sort(meet_.begin(), meet_.end());
  // σ_st and middle selection, weighted by σ_s(v)·σ_t(v).
  double sigma_st = 0.0;
  NodeId middle = kInvalidNode;
  for (NodeId v : meet_) {
    double w = fwd_.state[v].sigma * bwd_.state[v].sigma;
    sigma_st += w;
    if (rng->UniformDouble() * sigma_st < w) middle = v;
  }
  SAPHYRA_CHECK(middle != kInvalidNode);

  // Assemble s .. middle .. t.
  walk_.clear();
  WalkDown(adj, fwd_, middle, rng, &walk_);
  out->nodes.assign(walk_.rbegin(), walk_.rend());
  out->nodes.push_back(middle);
  WalkDown(adj, bwd_, middle, rng, &out->nodes);
  SAPHYRA_CHECK(out->nodes.front() == s && out->nodes.back() == t);
  out->num_paths = sigma_st;
  out->length = d;
  out->found = true;
  return true;
}

template <class Adj>
bool PathSampler::SampleUnidirectional(const Adj& adj, NodeId s, NodeId t,
                                       Rng* rng, PathSample* out) {
  InitSide(&fwd_, s, adj.Cost(s));
  // Expand until the level containing t completes (so σ(t) is final).
  bool reached = false;
  for (;;) {
    if (!ExpandLevel(adj, &fwd_, nullptr)) break;
    const NodeState& st = fwd_.state[t];
    if (st.epoch == epoch_ && st.dist <= fwd_.depth) {
      reached = true;  // t's level completed (or finalized earlier)
      break;
    }
  }
  if (!reached) return false;
  walk_.clear();
  WalkDown(adj, fwd_, t, rng, &walk_);
  out->nodes.assign(walk_.rbegin(), walk_.rend());
  out->nodes.push_back(t);
  SAPHYRA_CHECK(out->nodes.front() == s && out->nodes.back() == t);
  out->num_paths = fwd_.state[t].sigma;
  out->length = fwd_.state[t].dist;
  out->found = true;
  return true;
}

}  // namespace saphyra
