#ifndef SAPHYRA_BICOMP_BICONNECTED_H_
#define SAPHYRA_BICOMP_BICONNECTED_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/storage.h"

namespace saphyra {

/// Component id for arcs that belong to no biconnected component
/// (never produced for arcs of a valid graph; used as a sentinel).
constexpr uint32_t kInvalidComp = static_cast<uint32_t>(-1);

/// \brief Sorted member lists of every biconnected component, flat: the
/// members of component c are nodes[begin[c], begin[c+1]). Immutable; the
/// arrays are shared (ArrayRef view mode), so a copy costs O(1) — epochs
/// whose update kept the block partition share one set of lists — and a
/// `.sgr` load references the mapped view node arrays without a copy.
class ComponentMembers {
 public:
  ComponentMembers() = default;
  /// \brief Adopt flat lists; `begin` has one entry per component plus a
  /// final end offset (empty for no components).
  ComponentMembers(ArrayRef<uint64_t> begin, ArrayRef<NodeId> nodes)
      : begin_(std::move(begin)), nodes_(std::move(nodes)) {}

  /// \brief Number of components.
  size_t size() const { return begin_.empty() ? 0 : begin_.size() - 1; }

  /// \brief Members of component c, ascending.
  std::span<const NodeId> operator[](size_t c) const {
    return {nodes_.data() + begin_[c], nodes_.data() + begin_[c + 1]};
  }

  /// \brief The flat arrays (ComponentViews shares them as its node
  /// slices).
  const ArrayRef<uint64_t>& begin() const { return begin_; }
  const ArrayRef<NodeId>& nodes() const { return nodes_; }

  friend bool operator==(const ComponentMembers& a,
                         const ComponentMembers& b) {
    return a.begin_ == b.begin_ && a.nodes_ == b.nodes_;
  }

 private:
  ArrayRef<uint64_t> begin_;
  ArrayRef<NodeId> nodes_;
};

/// \brief Biconnected (2-vertex-connected) decomposition of a graph.
///
/// Computed with an iterative Hopcroft–Tarjan DFS (§IV-A of the paper,
/// citing [43]). Every undirected edge belongs to exactly one biconnected
/// component; a node belongs to every component one of its incident edges
/// belongs to. Nodes in more than one component are cutpoints: removing one
/// disconnects the graph (Fig. 2 of the paper).
///
/// Canonicalization contract: component ids are assigned in order of each
/// component's smallest CSR arc index, which makes every field of this
/// struct a pure function of the graph — independent of the traversal
/// order that produced it. The full pass and the incremental repair
/// (bicomp/incremental.h) both honor this, so persisted `.sgr`
/// decomposition sections are bitwise identical whichever route wrote them
/// (tests/bicomp_differential_test.cc pins this).
///
/// The node-level fields (is_cutpoint, component_nodes, node_component,
/// the multiplicities) are shared ArrayRefs: copying the struct copies
/// only the two arc-sized vectors, which is how an update that keeps the
/// block partition carries the rest over (bicomp/incremental.h).
struct BiconnectedComponents {
  /// Number of biconnected components (ℓ in the paper).
  uint32_t num_components = 0;

  /// Per CSR arc (see Graph::offset), the id of the component the
  /// underlying undirected edge belongs to. Both directions of an edge get
  /// the same label. The samplers use this to restrict BFS to one component.
  std::vector<uint32_t> arc_component;

  /// is_cutpoint[v] == 1 iff v is an articulation point.
  ArrayRef<uint8_t> is_cutpoint;

  /// Sorted node lists per component. A cutpoint appears in every component
  /// it belongs to, so the total size is n' = Σ|C_i| >= n.
  ComponentMembers component_nodes;

  /// For every node, the id of one component containing it (kInvalidComp
  /// for isolated nodes). For non-cutpoints this is *the* component.
  ArrayRef<uint32_t> node_component;

  /// \brief Number of biconnected components node v belongs to.
  uint32_t NumComponentsOf(NodeId v) const {
    return node_component[v] == kInvalidComp ? 0
           : (is_cutpoint[v] ? cutpoint_comp_count_[v] : 1);
  }

  /// \brief Reverse-arc map: rev_arc[e] is the CSR index of arc (v,u) given
  /// arc e = (u,v). Shared with the samplers.
  std::vector<EdgeIndex> rev_arc;

  // Internal: per-node component multiplicity for cutpoints.
  ArrayRef<uint32_t> cutpoint_comp_count_;
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

/// \brief Run the decomposition. O(n + m). The DFS stack lives on the
/// heap, so a graph whose DFS tree is millions of levels deep does not
/// recurse.
BiconnectedComponents ComputeBiconnectedComponents(const Graph& g);

/// \brief Compute the reverse-arc map alone (used by tests/samplers).
std::vector<EdgeIndex> ComputeReverseArcs(const Graph& g);

/// \brief Canonical finalization shared by the full pass and the
/// incremental repair.
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
/// any route that produces the correct partition — the full DFS or the
/// incremental repair — ends up bitwise identical after this
/// finalization.
void FinalizeBicompFields(const Graph& g, uint32_t label_space,
                          bool derive_cutpoints, BiconnectedComponents* out);

}  // namespace saphyra

#endif  // SAPHYRA_BICOMP_BICONNECTED_H_
