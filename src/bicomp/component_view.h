#ifndef SAPHYRA_BICOMP_COMPONENT_VIEW_H_
#define SAPHYRA_BICOMP_COMPONENT_VIEW_H_

#include <cstdint>
#include <span>
#include <vector>

#include "bicomp/biconnected.h"
#include "graph/graph.h"
#include "graph/storage.h"
#include "util/status.h"

namespace saphyra {

/// \brief Compact per-biconnected-component CSR subgraphs.
///
/// The Gen_bc sampler restricts every BFS to one biconnected component.
/// Filtering the global adjacency per arc (`arc_component[e] == c`) pays a
/// random 4-byte load plus a branch on every arc scanned — including all the
/// arcs that fail the test, which at cutpoints (a hub carrying thousands of
/// leaf bridges) can be nearly all of them. ComponentViews removes both
/// costs: each component is materialized once as its own relabeled CSR whose
/// nodes are 0..|C_i|−1 and whose adjacency holds exactly the component's
/// arcs, laid out contiguously. A component-restricted traversal then scans
/// pure adjacency with zero per-arc filtering or global-id indirection, and
/// its scratch arrays only ever touch the first |C_i| entries — dense and
/// cache-resident instead of scattered over all n global ids.
///
/// Layout: all components share four flat arrays. Component c owns the node
/// slice [node_begin(c), node_begin(c+1)) of `nodes_` (global ids, sorted
/// ascending — so local ids are order-preserving) and of `offsets_`, whose
/// entries are absolute indices into the shared `adj_` array of local ids.
/// Total size: Σ|C_i| node entries plus exactly num_arcs adjacency entries
/// (every arc belongs to exactly one component).
///
/// Local adjacency lists come out sorted by local id, mirroring the global
/// Graph invariant, and the local-id bijection preserves order. Because a
/// block holds every edge between two of its members, a component's view
/// is exactly its induced subgraph relabeled: a BFS over it yields the
/// block-restricted dist/σ (tests/component_view_test.cc checks this
/// against BfsWithCounts on the induced subgraph).
///
/// The four arrays live in ArrayRefs: built views own them; views loaded
/// from a `.sgr` cache reference the mapping zero-copy (graph/binary_io.h).
class ComponentViews {
 public:
  ComponentViews() = default;

  /// \brief Materialize every component of `bcc`, the decomposition of
  /// `g`, sharing its member lists as the node slices. A block is built
  /// from its members' arcs labeled with its id, neighbors mapped to
  /// local ids through an n-sized scratch map; a member whose degree
  /// dwarfs the block (a hub in a small block) binary-searches for the
  /// other members instead, so the whole build is O(n + m log Δ). With
  /// `parent` — the views of the graph one edge mutation earlier — and the
  /// repair's `remap`, a block carried from a parent block copies that
  /// block's slice with its offsets shifted (a run of blocks carried from
  /// consecutive parent blocks copies as one), the remap's edge block with
  /// the mutated edge's two arcs spliced in or out; only the blocks with
  /// new member lists are built.
  ComponentViews(const Graph& g, const BiconnectedComponents& bcc,
                 const ComponentViews* parent = nullptr,
                 const BlockRemap* remap = nullptr);

  /// \brief Number of components ℓ.
  uint32_t num_components() const {
    return static_cast<uint32_t>(node_begin_.empty() ? 0
                                                     : node_begin_.size() - 1);
  }

  /// \brief Largest component size (scratch-sizing aid).
  NodeId max_component_size() const { return max_size_; }

  /// \brief Number of nodes of component c.
  NodeId size(uint32_t c) const {
    return static_cast<NodeId>(node_begin_[c + 1] - node_begin_[c]);
  }

  /// \brief Directed arcs of component c.
  EdgeIndex num_arcs(uint32_t c) const {
    return offsets_[node_begin_[c + 1]] - offsets_[node_begin_[c]];
  }

  /// \brief Members of c as global ids, sorted ascending (local id order).
  std::span<const NodeId> nodes(uint32_t c) const {
    return {nodes_.data() + node_begin_[c], nodes_.data() + node_begin_[c + 1]};
  }

  /// \brief Local id of `global` in component c, kInvalidNode if absent.
  /// O(log |C_c|).
  NodeId ToLocal(uint32_t c, NodeId global) const;

  /// \brief Global id of local node `local` of component c.
  NodeId ToGlobal(uint32_t c, NodeId local) const {
    return nodes_[node_begin_[c] + local];
  }

  /// \brief Neighbors of local node `local` within component c, as local
  /// ids, sorted ascending.
  std::span<const NodeId> Neighbors(uint32_t c, NodeId local) const {
    const size_t o = node_begin_[c] + local;
    return {adj_.data() + offsets_[o], adj_.data() + offsets_[o + 1]};
  }

  /// \brief Degree of local node `local` within component c.
  NodeId Degree(uint32_t c, NodeId local) const {
    const size_t o = node_begin_[c] + local;
    return static_cast<NodeId>(offsets_[o + 1] - offsets_[o]);
  }

  /// \brief Hint the CSR offsets of `local` into cache (BFS lookahead).
  void PrefetchOffsets(uint32_t c, NodeId local) const {
    __builtin_prefetch(&offsets_[node_begin_[c] + local], 0, 3);
  }

  /// \brief The raw flat arrays (serialization / bulk-copy access).
  std::span<const uint64_t> raw_node_begin() const {
    return node_begin_.span();
  }
  std::span<const NodeId> raw_nodes() const { return nodes_.span(); }
  std::span<const EdgeIndex> raw_offsets() const { return offsets_.span(); }
  std::span<const NodeId> raw_adj() const { return adj_.span(); }

  /// \brief Assemble views directly from the four flat arrays
  /// (deserialization). Only boundary invariants are checked — the `.sgr`
  /// reader owns the trust model (see DESIGN.md).
  static Status FromParts(ArrayRef<uint64_t> node_begin,
                          ArrayRef<NodeId> nodes, ArrayRef<EdgeIndex> offsets,
                          ArrayRef<NodeId> adj, NodeId max_size,
                          ComponentViews* out);

 private:
  /// Appends the slices of blocks [first, last) to another view's arrays
  /// under construction, offsets shifted to where the adjacency lands.
  /// With `edge`, the one block gets the mutated edge's two arcs spliced
  /// in or out.
  void CopySlices(uint32_t first, uint32_t last, const BlockRemap* edge,
                  std::vector<EdgeIndex>* offsets,
                  std::vector<NodeId>* adj) const;

  ArrayRef<uint64_t> node_begin_;  // size ℓ+1, into nodes_/offsets_
  ArrayRef<NodeId> nodes_;    // size Σ|C_i|, global ids per component
  ArrayRef<EdgeIndex> offsets_;  // size Σ|C_i|+1, absolute into adj_
  ArrayRef<NodeId> adj_;      // size num_arcs, local ids
  NodeId max_size_ = 0;
};

}  // namespace saphyra

#endif  // SAPHYRA_BICOMP_COMPONENT_VIEW_H_
