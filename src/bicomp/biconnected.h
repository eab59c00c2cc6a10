#ifndef SAPHYRA_BICOMP_BICONNECTED_H_
#define SAPHYRA_BICOMP_BICONNECTED_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace saphyra {

/// Component id for arcs that belong to no biconnected component
/// (never produced for arcs of a valid graph; used as a sentinel).
constexpr uint32_t kInvalidComp = static_cast<uint32_t>(-1);

/// \brief Biconnected (2-vertex-connected) decomposition of a graph.
///
/// Computed with an iterative Hopcroft–Tarjan DFS (§IV-A of the paper,
/// citing [43]) or the parallel Tarjan–Vishkin pass below. Every undirected
/// edge belongs to exactly one biconnected component; a node belongs to
/// every component one of its incident edges belongs to. Nodes in more than
/// one component are cutpoints: removing one disconnects the graph (Fig. 2
/// of the paper).
///
/// Canonicalization contract: component ids are assigned in order of each
/// component's smallest CSR arc index, which makes every field of this
/// struct a pure function of the graph — independent of the algorithm,
/// traversal order, and thread count that produced it. The serial and
/// parallel passes both honor this, so persisted `.sgr` decomposition
/// sections are bitwise identical whichever pass wrote them
/// (tests/bicomp_differential_test.cc pins this).
struct BiconnectedComponents {
  /// Number of biconnected components (ℓ in the paper).
  uint32_t num_components = 0;

  /// Per CSR arc (see Graph::offset), the id of the component the
  /// underlying undirected edge belongs to. Both directions of an edge get
  /// the same label. The samplers use this to restrict BFS to one component.
  std::vector<uint32_t> arc_component;

  /// is_cutpoint[v] == 1 iff v is an articulation point.
  std::vector<uint8_t> is_cutpoint;

  /// Sorted node lists per component. A cutpoint appears in every component
  /// it belongs to, so the total size is n' = Σ|C_i| >= n.
  std::vector<std::vector<NodeId>> component_nodes;

  /// For every node, the id of one component containing it (kInvalidComp
  /// for isolated nodes). For non-cutpoints this is *the* component.
  std::vector<uint32_t> node_component;

  /// \brief Number of biconnected components node v belongs to.
  uint32_t NumComponentsOf(NodeId v) const {
    return node_component[v] == kInvalidComp ? 0
           : (is_cutpoint[v] ? cutpoint_comp_count_[v] : 1);
  }

  /// \brief Reverse-arc map: rev_arc[e] is the CSR index of arc (v,u) given
  /// arc e = (u,v). Shared with the samplers.
  std::vector<EdgeIndex> rev_arc;

  // Internal: per-node component multiplicity for cutpoints.
  std::vector<uint32_t> cutpoint_comp_count_;
};

/// \brief Every node's components, with the node's local id in each (its
/// index in component_nodes[c]), in flat arrays. Built by one pass over
/// component_nodes, O(n + Σ|C_i|); a node's components come out ascending
/// because components are visited in id order.
class NodeComponentIndex {
 public:
  explicit NodeComponentIndex(const BiconnectedComponents& bcc);

  /// \brief Components node v belongs to, ascending (empty if isolated).
  std::span<const uint32_t> Components(NodeId v) const {
    return {comp_.data() + first_[v], comp_.data() + first_[v + 1]};
  }

  /// \brief Local id of v in component c, which v must belong to. A binary
  /// search over Components(v): one entry unless v is a cutpoint.
  NodeId LocalId(NodeId v, uint32_t c) const;

 private:
  std::vector<uint64_t> first_;  // size n+1, into comp_ / local_
  std::vector<uint32_t> comp_;   // size Σ|C_i|
  std::vector<NodeId> local_;    // size Σ|C_i|
};

/// \brief Run the serial decomposition. O(n + m).
BiconnectedComponents ComputeBiconnectedComponents(const Graph& g);

/// \brief Parallel decomposition on SharedThreadPool: a Tarjan–Vishkin
/// style vertex labeling over a BFS spanning forest (spanning forest +
/// preorder ranges + low/high sweeps), with no recursion and no
/// depth-proportional stack — safe on graphs whose DFS tree is millions of
/// levels deep. Output is field-for-field identical to
/// ComputeBiconnectedComponents (see the canonicalization contract above).
///
/// `num_threads` = 0 sizes the pass to the shared pool's width; 1 delegates
/// to the serial oracle; N > 1 uses N logical chunks (chunk boundaries
/// depend only on N, so results are reproducible even when the pool has
/// fewer workers). Every setting produces the same bytes.
BiconnectedComponents ComputeBiconnectedComponentsParallel(
    const Graph& g, uint32_t num_threads = 0);

/// \brief The decomposition with an explicit DFS depth guard: fails with
/// FailedPrecondition once the (heap-allocated) DFS stack would exceed
/// `max_depth` frames, instead of spending unbounded memory on a
/// path-like graph. `max_depth` = 0 means unlimited. On error `*out` is
/// left in an unspecified state and must not be used.
Status ComputeBiconnectedComponentsBounded(const Graph& g, uint64_t max_depth,
                                           BiconnectedComponents* out);

/// \brief Compute the reverse-arc map alone (used by tests/samplers).
std::vector<EdgeIndex> ComputeReverseArcs(const Graph& g);

/// \brief Canonical finalization shared by the decomposition passes.
///
/// On entry `out->arc_component` holds a provisional per-arc labeling
/// (values < `label_space`, both directions of an edge sharing a label)
/// that partitions the arcs into the graph's biconnected components —
/// with any label values, in any order. The helper renumbers the labels
/// canonically (ascending smallest CSR arc index — the contract above),
/// sets num_components, and rebuilds component_nodes, node_component and
/// the cutpoint multiplicities from the labels. With `derive_cutpoints`
/// set, is_cutpoint is derived as multiplicity > 1 (a node is an
/// articulation point iff it belongs to at least two components, the
/// incremental repair path); otherwise the caller's is_cutpoint is kept
/// and checked consistent (the serial pass cross-validates its Tarjan
/// cutpoints this way). rev_arc is untouched.
///
/// Because every derived field is a pure function of the arc partition,
/// any pass that produces the correct partition — serial DFS, parallel
/// labeling, or incremental repair — ends up bitwise identical after
/// this finalization.
void FinalizeBicompFields(const Graph& g, uint32_t label_space,
                          bool derive_cutpoints, BiconnectedComponents* out);

}  // namespace saphyra

#endif  // SAPHYRA_BICOMP_BICONNECTED_H_
