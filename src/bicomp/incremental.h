#ifndef SAPHYRA_BICOMP_INCREMENTAL_H_
#define SAPHYRA_BICOMP_INCREMENTAL_H_

/// \file
/// Incremental repair of the biconnected decomposition under one edge
/// mutation — the serving tier's alternative to re-running a full pass
/// on every {"op":"update"} request.
///
/// The repair exploits the two classic locality facts about biconnected
/// components:
///   - inserting {u,v} inside one connected component merges exactly the
///     blocks on the block-cut-tree path between u and v (plus the new
///     edge) into one block; every block off that path is untouched.
///     Inserting across components (or at an isolated endpoint) adds the
///     new edge as its own bridge block and touches nothing else.
///   - deleting an edge can only split the block that contained it; all
///     other blocks are untouched.
/// So the repair carries the old decomposition onto the new CSR and
/// changes only what the mutation changed. An insert finds the
/// block-cut-tree path by a search from both endpoints over the old arc
/// labels (an insert whose endpoints share a block has a one-block path)
/// and takes one of three routes:
///   - kept: the path is one block and its smallest arc keeps its place
///     among the blocks' smallest arcs, so the partition stands.
///   - merge: the path blocks and the new edge become one block
///     (BlockMerge). Every off-path block keeps its member list under an
///     id shifted by one monotone renumber, so the decomposition is
///     spliced, not re-derived: the arc labels and rev_arc shift around
///     the two new arcs, the merged block's members are the union of the
///     path blocks', and the node fields change only at the path's
///     cutpoints, which each lose one membership. Inserts never recompute
///     and never fall back.
///   - across components: the new edge is a bridge block of its own, but
///     the two connected components join, so every table on that side
///     changes; the canonical finalization rebuilds the derived fields.
/// A bridge delete drops its block's label and recomputes nothing. Any
/// other delete takes one of three routes:
///   - kept: the two-path test, run on the parent's view of the block,
///     finds two internally vertex-disjoint u–v paths in the block without
///     the edge. By Menger's theorem the block then stays one block with
///     the same members, so nothing is relabeled.
///   - local recompute: the test fails, so the block splits; the
///     decomposition of its surviving arcs is grafted back.
///   - fallback: the split block is past `max_dirty_fraction` of the
///     graph's arcs, and the full decomposition runs instead.
/// When the partition stands (kept inserts and deletes) and no block's
/// smallest arc moved past another's, the old node-level fields carry
/// over unchanged — the member lists are shared, not copied — and only
/// arc_component and rev_arc shift around the two mutated arcs
/// (IncrementalBicompStats::kept_partition); IspIndex then reuses the
/// parent's partition tables. After a merge IspIndex keeps every
/// off-path block's tables and re-derives only the merged block's.
/// Otherwise the shared canonical finalization (FinalizeBicompFields)
/// rebuilds every derived field. Because every derived field is a pure
/// function of the arc partition, the repaired struct is BITWISE
/// identical to ComputeBiconnectedComponents(new_graph) on every route —
/// the property tests/incremental_bicomp_test.cc and the mutation
/// differential harness pin.
///
/// One mutation per call, by design: the dirty-region computation is
/// exact for a single edge change, whereas batching mutations can route
/// the true block-cut-tree path through blocks the stale tree no longer
/// describes. The serving tier applies one update request at a time
/// anyway, so the decomposition is exact after every apply.
///
/// The fallback is invisible in the output bytes: the full pass honors
/// the same canonicalization contract.

#include <cstdint>

#include <vector>

#include "bicomp/biconnected.h"
#include "bicomp/component_view.h"
#include "graph/graph.h"

namespace saphyra {

enum class EdgeMutationKind : uint8_t { kInsert, kDelete };

/// \brief One undirected edge mutation (u < v not required).
struct EdgeMutation {
  EdgeMutationKind kind = EdgeMutationKind::kInsert;
  NodeId u = 0;
  NodeId v = 0;
};

struct IncrementalBicompOptions {
  /// Fall back to the full decomposition when a delete's dirty region
  /// exceeds this fraction of the new graph's arcs (inserts never fall
  /// back).
  double max_dirty_fraction = 0.25;
};

/// \brief How a merging insert reshaped the block partition: the old
/// blocks `blocks` became one block with new id `merged_id`, and every
/// other block kept its member list, its relative order and, for each
/// member, its out-reach. Every per-block table (one entry per block, or
/// one slice per block laid out at component_nodes offsets) therefore
/// carries over by a splice: drop the merged blocks' slices and open the
/// merged block's in their place (see Splice).
struct BlockMerge {
  /// Old ids of the merged blocks, ascending (empty: no merge).
  std::vector<uint32_t> blocks;
  /// Nodes in two merged blocks — the cutpoints on the block-cut-tree
  /// path, ascending. Each loses one membership.
  std::vector<NodeId> cutpoints;
  /// The merged block's new id.
  uint32_t merged_id = kInvalidComp;
  /// Old id of the block that follows the merged block in the new order
  /// (the old block count when none does); never a merged block.
  uint32_t next_old = 0;

  /// \brief Walk an old per-block table in the new block order. Old block
  /// c owns the entries [slot(c), slot(c+1)) (`slot` is non-decreasing;
  /// slot(num_old) is the table's end); `copy(from, to)` receives each
  /// maximal run of kept entries and `insert()` marks where the merged
  /// block's slice goes.
  template <typename Slot, typename Copy, typename Insert>
  void Walk(uint32_t num_old, const Slot& slot, const Copy& copy,
            const Insert& insert) const {
    uint64_t pos = 0;
    bool inserted = false;
    auto insert_at_next = [&] {
      copy(pos, slot(next_old));
      insert();
      pos = slot(next_old);
      inserted = true;
    };
    for (uint32_t b : blocks) {
      if (!inserted && next_old < b) insert_at_next();
      copy(pos, slot(b));
      pos = slot(b + 1);
    }
    if (!inserted) insert_at_next();
    copy(pos, slot(num_old));
  }

  /// \brief The new table of an old one: the kept entries in order, with
  /// `merged_size` value-initialized entries at the merged block's place
  /// for the caller to fill.
  template <typename T, typename Slot>
  std::vector<T> Splice(std::span<const T> old, uint32_t num_old,
                        const Slot& slot, uint64_t merged_size) const {
    std::vector<T> out;
    out.reserve(old.size() + merged_size);
    Walk(
        num_old, slot,
        [&](uint64_t from, uint64_t to) {
          out.insert(out.end(), old.begin() + from, old.begin() + to);
        },
        [&] { out.resize(out.size() + merged_size); });
    return out;
  }
};

/// \brief Observability of one repair (tests pin the routing decisions),
/// and the route IspIndex's reuse constructor follows.
struct IncrementalBicompStats {
  bool fell_back = false;      ///< full decomposition ran instead
  /// The block partition stood: the same member lists under the same
  /// canonical ids, so only arc_component and rev_arc changed (nothing
  /// relabeled, dirty_arcs 0) and every table derived from the partition
  /// stays valid (IspIndex's reuse constructor).
  bool kept_partition = false;
  /// The insert merged the blocks on its block-cut-tree path; non-empty
  /// exactly on the merge route.
  BlockMerge merge;
  uint64_t dirty_arcs = 0;     ///< arcs of the relabeled region
  uint32_t dirty_blocks = 0;   ///< old components in the dirty set

  bool merged() const { return !merge.blocks.empty(); }
};

/// \brief Repair `old_bcc` — the decomposition of `old_graph`, with
/// `old_views` its component views — into the decomposition of
/// `new_graph`, which must differ from `old_graph` by exactly the single
/// mutation `mut` (same node count; the edge present on exactly one
/// side). Bitwise identical to a from-scratch
/// ComputeBiconnectedComponents(new_graph).
BiconnectedComponents RepairBiconnectedComponents(
    const Graph& old_graph, const BiconnectedComponents& old_bcc,
    const ComponentViews& old_views, const Graph& new_graph,
    const EdgeMutation& mut, const IncrementalBicompOptions& opts = {},
    IncrementalBicompStats* stats = nullptr);

}  // namespace saphyra

#endif  // SAPHYRA_BICOMP_INCREMENTAL_H_
