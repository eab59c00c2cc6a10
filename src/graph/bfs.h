#ifndef SAPHYRA_GRAPH_BFS_H_
#define SAPHYRA_GRAPH_BFS_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/frontier.h"
#include "graph/graph.h"

namespace saphyra {

/// Distance value for unreachable nodes.
constexpr uint32_t kUnreachable = std::numeric_limits<uint32_t>::max();

/// \brief Result of a single-source BFS.
struct BfsResult {
  /// dist[v] = hop distance from the source, kUnreachable if disconnected.
  std::vector<uint32_t> dist;
  /// Nodes in visit order (source first). Useful for reverse sweeps.
  std::vector<NodeId> order;
};

/// \brief Plain single-source BFS over the whole graph.
BfsResult Bfs(const Graph& g, NodeId source);

/// \brief Single-source shortest-path DAG: distances plus path counts.
///
/// sigma[v] = number of distinct shortest paths from the source to v
/// (the sigma_sv of Eq. 3). Counts are doubles, as in Brandes' algorithm:
/// path counts overflow 64-bit integers on large graphs, and the
/// estimators only ever use ratios of counts.
struct SpDag {
  std::vector<uint32_t> dist;
  std::vector<double> sigma;
  std::vector<NodeId> order;  // BFS visit order (non-decreasing distance)
};

/// \brief BFS from `source` computing distances and shortest-path counts:
/// one BfsKernel run copied into an SpDag. dist/σ are identical for every
/// policy — the hybrid kernel only changes *how* levels are expanded (see
/// DESIGN.md, "Direction-optimizing traversal").
SpDag BfsWithCounts(const Graph& g, NodeId source,
                    TraversalPolicy policy = TraversalPolicy::kAuto);

/// \brief Reusable direction-optimizing σ-counting BFS.
///
/// The workhorse behind BfsWithCounts and the Brandes forward pass. One
/// instance owns all scratch, so back-to-back runs pay no allocation: the
/// only per-run reset is one dist memset — σ is written at discovery and
/// needs no clearing, and full-graph traversals touch most of dist anyway,
/// so an epoch stamp would only fatten the hot array. Unlike the sampler
/// (whose tiny scattered searches want the packed 16-byte AoS record),
/// the kernel keeps dist/σ as separate dense arrays: the per-arc discovery
/// test then streams a 4-byte dist entry, the same footprint as the
/// textbook loop, with σ touched only on discovery and same-level adds.
///
/// Each level is expanded top-down or, when the policy allows it and
/// DirectionHeuristic fires, bottom-up: unvisited vertices pull from the
/// FrontierSet bitmap of the frontier, accumulating σ over *all* their
/// discovered parents so path counts come out identical in either
/// direction (integer-valued doubles — exact sums, order-independent).
/// The heuristic's frontier arc mass is tracked for free where possible
/// (the expansion's own scan, the pull's discovered degrees) and a
/// max-degree precheck skips the explicit degree pass whenever no switch
/// is remotely possible — the common case on bounded-degree graphs.
///
/// Results are valid until the next Run. Not thread-safe; create one per
/// thread (as ParallelBrandesBetweenness does).
class BfsKernel {
 public:
  explicit BfsKernel(const Graph& g,
                     TraversalPolicy policy = TraversalPolicy::kAuto);

  /// \brief Run a full single-source BFS with path counts.
  void Run(NodeId source);

  /// dist/σ of the latest Run (kUnreachable / 0.0 for untouched nodes).
  uint32_t dist(NodeId v) const { return dist_[v]; }
  double sigma(NodeId v) const {
    return dist_[v] == kUnreachable ? 0.0 : sigma_[v];
  }

  /// \brief Visited nodes of the latest Run in non-decreasing distance
  /// order (source first). Within one level the order depends on the
  /// expansion direction; consumers may rely on the level grouping only.
  std::span<const NodeId> order() const { return {order_.data(), order_size_}; }

  /// \brief Levels of the latest Run expanded bottom-up (diagnostics).
  uint32_t last_bottom_up_levels() const { return bottom_up_levels_; }

  TraversalPolicy policy() const { return policy_; }
  void set_policy(TraversalPolicy policy) { policy_ = policy; }

 private:
  /// Expand one level; returns the arc mass it scanned (the frontier's
  /// arcs top-down, the candidates' arcs bottom-up).
  uint64_t ExpandTopDown(uint32_t new_depth, size_t level_begin,
                         size_t level_end);
  void ExpandBottomUp(uint32_t new_depth, size_t level_begin,
                      size_t level_end);

  const Graph& g_;
  TraversalPolicy policy_;
  std::vector<uint32_t> dist_;
  std::vector<double> sigma_;
  /// `order_` doubles as the BFS queue (the seed's implicit-queue trick,
  /// level slices [begin, end) tracked by Run): no separate frontier list
  /// and no per-level copy.
  std::vector<NodeId> order_;
  size_t order_size_ = 0;
  /// Epoch-reset FrontierSet bitmap of the current frontier, marked at the
  /// start of each bottom-up level: the pull tests membership with one L1
  /// bit probe per arc instead of a 16-byte state-line load.
  FrontierSet frontier_bits_;
  /// Bottom-up candidates: built lazily at the first pull of a run, then
  /// compacted in place (vertices stamped by intervening top-down levels
  /// are dropped on the next pull).
  std::vector<NodeId> unvisited_;
  size_t unvisited_size_ = 0;
  bool unvisited_valid_ = false;
  /// Arc mass of the current frontier when exactly known (source level,
  /// after a pull, after a precheck-triggered degree pass); kUnknownMass
  /// when only the |frontier| × max-degree upper bound is available.
  static constexpr uint64_t kUnknownMass = ~uint64_t{0};
  uint64_t frontier_arcs_ = 0;
  uint64_t explored_arcs_ = 0;   ///< arc mass of all *expanded* levels
  uint32_t bottom_up_levels_ = 0;
};

/// \brief Eccentricity of `source` within its connected component.
uint32_t Eccentricity(const Graph& g, NodeId source);

/// \brief Lower bound on the diameter via the classic double-sweep heuristic.
///
/// BFS from `seed`, then BFS again from the farthest node found; the second
/// eccentricity is a diameter lower bound (and is exact on trees).
uint32_t TwoSweepDiameterLowerBound(const Graph& g, NodeId seed = 0);

/// \brief Upper bound on the diameter: 2 * eccentricity(seed).
uint32_t DiameterUpperBound(const Graph& g, NodeId seed = 0);

/// \brief Exact diameter by running BFS from every node. O(nm); tests only.
uint32_t ExactDiameter(const Graph& g);

}  // namespace saphyra

#endif  // SAPHYRA_GRAPH_BFS_H_
