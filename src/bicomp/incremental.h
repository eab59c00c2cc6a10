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
/// So the repair transfers the old per-arc labels onto the new CSR and
/// relabels only the "dirty" edge set:
///   - an insert is a closed-form relabel: the path blocks' arcs and the
///     two new arcs take one fresh label (the new edge alone when the path
///     is empty). Nothing is recomputed, and inserts never fall back.
///   - a delete recomputes the serial decomposition of the containing
///     block's surviving arcs and grafts the sub-labels back.
/// Either way the shared canonical finalization (FinalizeBicompFields)
/// then rebuilds every derived field. Because every derived field is a
/// pure function of the arc partition and the finalization is shared, the
/// repaired struct is BITWISE identical to
/// ComputeBiconnectedComponents(new_graph) — the property
/// tests/incremental_bicomp_test.cc and the mutation differential harness
/// pin.
///
/// One mutation per call, by design: the dirty-region computation is
/// exact for a single edge change, whereas batching mutations can route
/// the true block-cut-tree path through blocks the stale tree no longer
/// describes. The serving tier applies one update request at a time
/// anyway, so the decomposition is exact after every apply.
///
/// When a delete's dirty region exceeds `max_dirty_fraction` of the
/// graph's arcs (an edge of a huge block), recomputing it costs about as
/// much as a full pass — the repair falls back to the parallel pass,
/// which honors the same canonicalization contract, so the fallback is
/// invisible in the output bytes.

#include <cstdint>

#include "bicomp/biconnected.h"
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
  /// Fall back to the full parallel pass when a delete's dirty region
  /// exceeds this fraction of the new graph's arcs (inserts never fall
  /// back).
  double max_dirty_fraction = 0.25;
  /// Thread count for the fallback pass (0 = shared pool width, 1 =
  /// serial). Any value produces the same bytes (canonicalization
  /// contract).
  uint32_t fallback_threads = 1;
};

/// \brief Observability of one repair (tests pin the routing decisions).
struct IncrementalBicompStats {
  bool fell_back = false;      ///< full parallel pass ran instead
  uint64_t dirty_arcs = 0;     ///< arcs of the relabeled region
  uint32_t dirty_blocks = 0;   ///< old components in the dirty set
};

/// \brief Repair `old_bcc` — the decomposition of `old_graph` — into the
/// decomposition of `new_graph`, which must differ from `old_graph` by
/// exactly the single mutation `mut` (same node count; the edge present
/// on exactly one side). Bitwise identical to a from-scratch
/// ComputeBiconnectedComponents(new_graph).
BiconnectedComponents RepairBiconnectedComponents(
    const Graph& old_graph, const BiconnectedComponents& old_bcc,
    const Graph& new_graph, const EdgeMutation& mut,
    const IncrementalBicompOptions& opts = {},
    IncrementalBicompStats* stats = nullptr);

}  // namespace saphyra

#endif  // SAPHYRA_BICOMP_INCREMENTAL_H_
