#ifndef SAPHYRA_BC_PATH_SAMPLER_H_
#define SAPHYRA_BC_PATH_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "bicomp/biconnected.h"
#include "bicomp/component_view.h"
#include "graph/frontier.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace saphyra {

/// \brief One sampled shortest path.
struct PathSample {
  /// Path nodes from s to t inclusive (length + 1 entries).
  std::vector<NodeId> nodes;
  /// σ_st: number of distinct shortest s-t paths (within the restriction).
  double num_paths = 0.0;
  /// Hop length of the path.
  uint32_t length = 0;
  /// False iff t is unreachable from s (never happens inside a component).
  bool found = false;
};

/// \brief How the sampler explores the graph.
enum class SamplingStrategy {
  /// Balanced bidirectional BFS (the paper's choice, borrowed from
  /// KADABRA [12]): grow the cheaper frontier from each end until they
  /// meet; expected cost n^{1/2+o(1)} per sample on power-law graphs
  /// (Lemma 21).
  kBidirectional,
  /// Plain BFS from s until t's level completes. O(m) worst case; kept as
  /// an ablation reference.
  kUnidirectional,
};

/// \brief Samples uniform random shortest paths between node pairs, with
/// optional restriction to one biconnected component.
///
/// A sampled path is uniform over the σ_st shortest s-t paths: BFS path
/// counts σ are computed from both endpoints, a "middle" node is drawn with
/// probability σ_s(v)·σ_t(v)/σ_st, and the two halves are completed by
/// backward walks choosing each predecessor proportionally to its σ.
///
/// Component-restricted samples run on the block's compact CSR view
/// (ComponentViews): the BFS walks the component's own adjacency in local
/// ids, scanning pure arcs with no per-arc filtering, and translates back
/// to global ids only when emitting the path. Unrestricted samples walk the
/// global CSR. The tests check the view path's σ against a σ-BFS of the
/// block's induced subgraph and its path frequencies against the exact
/// uniform-over-σ_st law.
///
/// All scratch memory is owned by the sampler and reset in O(touched) via
/// epoch counters, so one instance can serve millions of samples with no
/// allocation in the steady state. It is allocated at the first draw and
/// sized to the domain that draw traverses — the largest block for
/// restricted draws, n for unrestricted ones — so a sampler that never
/// draws (an engine's clonability probe) costs O(1). Instances are not
/// thread-safe; create one per thread.
class PathSampler {
 public:
  /// \brief Restricted samples traverse `views`' compact per-component
  /// CSR; `views` must outlive the sampler. A null `views` builds an
  /// unrestricted-only sampler (KADABRA's), for which a restricted draw is
  /// a checked error.
  PathSampler(const Graph& g, const ComponentViews* views);

  /// \brief Sample a uniform shortest path from s to t (s != t, global
  /// ids) over the whole graph. Returns false (and found=false) if t is
  /// unreachable.
  bool SampleUniformPath(NodeId s, NodeId t, SamplingStrategy strategy,
                         Rng* rng, PathSample* out);

  /// \brief Sample a uniform shortest path between two members of
  /// component `comp`, traversing only its arcs. `s` and `t` are local
  /// ids of the component's view — member indices, as
  /// IspIndex::SampleSource/SampleTarget return them; the emitted path is
  /// in global ids.
  bool SampleRestrictedPath(uint32_t comp, NodeId s, NodeId t,
                            SamplingStrategy strategy, Rng* rng,
                            PathSample* out);

  /// \brief How BFS levels are expanded (graph/frontier.h). Anything but
  /// kTopDown enables the direction-optimizing pull on both substrates
  /// (global CSR, component views). The sampled-path *distribution* and,
  /// for a fixed seed, the sampled paths themselves are policy-independent:
  /// σ sums are exact (integer-valued doubles) and the meet set is
  /// canonicalized before any random choice, so the RNG stream advances
  /// identically either way.
  void set_traversal(TraversalPolicy policy) { traversal_ = policy; }
  TraversalPolicy traversal() const { return traversal_; }

  /// \brief Arcs scanned by the most recent call (cost diagnostics).
  uint64_t last_arcs_scanned() const { return arcs_scanned_; }

  /// \brief BFS levels of the most recent call expanded bottom-up.
  uint32_t last_bottom_up_levels() const { return bottom_up_levels_; }

 private:
  /// Per-node BFS state, packed so one cache-line touch per visited node
  /// replaces the three separate epoch/dist/sigma array loads (the dominant
  /// per-arc cost — the adjacency stream itself is sequential).
  struct NodeState {
    uint32_t epoch;
    uint32_t dist;
    double sigma;
  };
  struct Side {
    std::vector<NodeState> state;
    /// The node this side's search started from (dist 0, σ = 1).
    NodeId origin = kInvalidNode;
    /// frontier/next hold one BFS level in FrontierSet's dual form: the
    /// sparse list drives top-down pushes (with the branchless-expansion
    /// slack slot), the epoch-reset bitmap serves bottom-up pulls.
    FrontierSet frontier;
    FrontierSet next;
    uint32_t depth = 0;
    /// Arc mass of `frontier`, accumulated at discovery so neither the
    /// bidirectional balance check nor the direction heuristic ever
    /// rescans a frontier.
    uint64_t frontier_cost = 0;
    /// Arc mass of every node this side has stamped this epoch; the
    /// direction heuristic's |unexplored arcs| is the domain total minus
    /// this.
    uint64_t explored_cost = 0;
    /// Bottom-up candidates: built lazily at the first pull of a search,
    /// compacted in place on every pull.
    std::vector<NodeId> unvisited;
    size_t unvisited_size = 0;
    bool unvisited_valid = false;
  };

  /// Grow both sides' scratch to cover local ids [0, domain).
  void ReserveScratch(NodeId domain);
  /// Open a new epoch and clear `out`.
  void BeginSample(PathSample* out);
  void InitSide(Side* side, NodeId origin, uint64_t origin_cost);

  /// Frontier arc mass of a level of `cnt` nodes on a near-regular domain:
  /// returns false (leaving *cost untouched) when the graph's degree
  /// spread warrants the exact per-node pass instead. Bounded-degree
  /// graphs (road networks: max degree ≤ 8) are near-regular by
  /// construction, so |level| × avg-degree is accurate and saves two
  /// offset loads per discovered node; anything hub-bearing keeps the
  /// sharp per-node balance. Must be applied identically by both
  /// expansion directions — the balance values feed grow decisions, which
  /// the hybrid on/off determinism contract covers.
  bool LevelCostEstimate(size_t cnt, uint64_t* cost) const {
    if (!regular_domain_ || domain_size_ == 0) return false;
    *cost = static_cast<uint64_t>(cnt) * domain_arcs_ / domain_size_;
    return true;
  }
  static constexpr NodeId kRegularGraphMaxDegree = 8;

  /// The traversal core is templated over an adjacency adapter (global
  /// CSR or component view, see path_sampler.cc), so the component view's
  /// offsets and the global CSR's each compile to their own loop.
  /// Expand one BFS level of `side`. When `other` is non-null (bidirectional
  /// search), newly discovered nodes already stamped by `other` this epoch
  /// are appended to meet_.
  template <class Adj>
  bool ExpandLevel(const Adj& adj, Side* side, const Side* other);
  template <class Adj>
  void ExpandLevelBottomUp(const Adj& adj, Side* side, const Side* other,
                           uint32_t new_depth);
  /// Walk from `v` back to the side's origin, appending each predecessor
  /// drawn with probability σ(u)/Σσ; the hop from dist 1 is implied.
  template <class Adj>
  void WalkDown(const Adj& adj, const Side& side, NodeId v, Rng* rng,
                std::vector<NodeId>* out);
  template <class Adj>
  bool SampleBidirectional(const Adj& adj, NodeId s, NodeId t, Rng* rng,
                           PathSample* out);
  template <class Adj>
  bool SampleUnidirectional(const Adj& adj, NodeId s, NodeId t, Rng* rng,
                            PathSample* out);
  template <class Adj>
  bool Dispatch(const Adj& adj, NodeId s, NodeId t,
                SamplingStrategy strategy, Rng* rng, PathSample* out);

  const Graph& g_;
  const ComponentViews* views_;
  TraversalPolicy traversal_ = TraversalPolicy::kAuto;
  /// Domain metrics of the current sample's substrate, cached once per
  /// Dispatch so the per-level direction heuristic reads two scalars
  /// instead of chasing the component-view offset arrays every level.
  NodeId domain_size_ = 0;
  uint64_t domain_arcs_ = 0;
  /// True when the whole graph is bounded-degree (≤ kRegularGraphMaxDegree
  /// — every component view inherits the bound), enabling the level-cost
  /// estimate above.
  bool regular_domain_ = false;
  Side fwd_, bwd_;
  /// Ids both sides' scratch covers (ReserveScratch).
  NodeId scratch_size_ = 0;
  uint32_t epoch_ = 0;
  uint64_t arcs_scanned_ = 0;
  uint32_t bottom_up_levels_ = 0;
  std::vector<NodeId> meet_;  // middle candidates of the current sample
  std::vector<NodeId> walk_;  // scratch of the s-side backward walk

  static constexpr uint32_t kNoDist = static_cast<uint32_t>(-1);
};

}  // namespace saphyra

#endif  // SAPHYRA_BC_PATH_SAMPLER_H_
