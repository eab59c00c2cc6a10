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
///   - merge: the path blocks and the new edge become one block. Every
///     off-path block keeps its member list under an id shifted by one
///     monotone renumber, so the decomposition is spliced, not
///     re-derived: the arc labels shift around the two new arcs, the
///     merged block's members are the union of the path blocks', and the
///     node fields change only at the path's cutpoints, which each lose
///     one membership.
///   - across components: the new edge is a bridge block of its own; the
///     canonical finalization rebuilds the derived fields.
/// A bridge delete drops its block's label and recomputes nothing. Any
/// other delete runs the two-path test on the parent's view of the
/// block: when it finds two internally vertex-disjoint u–v paths in the
/// block without the edge, Menger's theorem says the block stays one
/// block with the same members and nothing is relabeled; otherwise the
/// block splits, and Hopcroft–Tarjan on the parent's view of the block
/// minus the edge relabels its arcs.
/// When the partition stands (kept inserts and deletes) and no block's
/// smallest arc moved past another's, the old node-level fields carry
/// over unchanged — the member lists are shared, not copied — and only
/// arc_component shifts around the two mutated arcs.
/// Otherwise the shared canonical finalization (FinalizeBicompFields)
/// rebuilds every derived field. Because every derived field is a pure
/// function of the arc partition, the repaired struct is BITWISE
/// identical to ComputeBiconnectedComponents(new_graph) on every route —
/// the property tests/incremental_bicomp_test.cc and the mutation
/// differential harness pin.
///
/// Every route reports a BlockRemap: which new blocks kept a parent
/// block's member list. IspIndex derives the new epoch's index from the
/// parent's through it, re-deriving only what changed.
///
/// One mutation per call, by design: the dirty-region computation is
/// exact for a single edge change, whereas batching mutations can route
/// the true block-cut-tree path through blocks the stale tree no longer
/// describes. The serving tier applies one update request at a time
/// anyway, so the decomposition is exact after every apply.

#include <cstdint>

#include "bicomp/biconnected.h"
#include "bicomp/component_view.h"
#include "graph/graph.h"
#include "util/status.h"

namespace saphyra {

enum class EdgeMutationKind : uint8_t { kInsert, kDelete };

/// \brief One undirected edge mutation (u < v not required).
struct EdgeMutation {
  EdgeMutationKind kind = EdgeMutationKind::kInsert;
  NodeId u = 0;
  NodeId v = 0;
};

/// \brief The CSR of `g` with `mut` applied: the two arcs of {u,v}
/// spliced in (insert) or out (delete), the offsets shifted by one past
/// min(u,v) and by two past max(u,v). Bitwise identical (offsets,
/// adjacency, max_degree) to GraphBuilder over the mutated edge list.
///
/// INVALID_ARGUMENT, with `*out` untouched, when an endpoint is out of
/// range, an insert is a self loop or duplicates an edge of `g`, or a
/// delete names an edge `g` does not have: GraphBuilder's dedup would
/// silently collapse these, so the serving tier rejects them instead and
/// a request stream replays identically everywhere.
Status SpliceEdge(const Graph& g, const EdgeMutation& mut, Graph* out);

/// \brief What one repair changed: the remap IspIndex derives the new
/// epoch's index through, and the size of the relabeled region
/// (observability only).
struct IncrementalBicompStats {
  BlockRemap remap;
  uint64_t dirty_arcs = 0;  ///< arcs of the relabeled region
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
    const EdgeMutation& mut, IncrementalBicompStats* stats = nullptr);

}  // namespace saphyra

#endif  // SAPHYRA_BICOMP_INCREMENTAL_H_
