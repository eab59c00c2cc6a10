#ifndef SAPHYRA_GRAPH_DELTA_OVERLAY_H_
#define SAPHYRA_GRAPH_DELTA_OVERLAY_H_

/// \file
/// DeltaOverlay: a mutable edge-set overlay on the immutable CSR.
///
/// The `.sgr` substrate is deliberately immutable (zero-copy mmap, content
/// fingerprint in the header); dynamic-graph serving layers mutations on
/// top instead of rebuilding: per-vertex sorted insert lists plus a
/// tombstone bitmap over the base arcs. The overlay's effective edge set
/// is (base \ tombstones) ∪ inserts, and every accessor presents it in
/// the same sorted-dedup canonical form GraphBuilder produces — which is
/// what makes a mutated overlay bitwise indistinguishable from a full
/// rebuild of the mutated edge list (the property the mutation
/// differential tests pin).
///
/// Mutations validate against the *effective* graph: inserting an edge
/// that exists (live in base, or pending in the insert lists) and deleting
/// one that doesn't are INVALID_ARGUMENT, mirroring how GraphBuilder's
/// dedup would silently collapse them — the serving tier must reject them
/// instead, so a request stream replays identically everywhere. Self
/// loops and out-of-range endpoints are INVALID_ARGUMENT for the same
/// reason. Deleting a pending insert cancels it; re-inserting a
/// tombstoned base edge clears the tombstone — delta_size() counts only
/// live deviations from the base.
///
/// ForEachNeighbor is a two-pointer merge of the live base arcs and the
/// insert list, so neighbors come out in ascending order exactly as a
/// materialized CSR would produce them. Nothing traverses the overlay
/// itself: every update materializes the effective graph (Materialize())
/// as the new epoch's CSR, and past a delta budget the owner rebases onto
/// it, bounding both the merge overhead and the tombstone metadata.
///
/// Not thread-safe: the serving tier publishes immutable epoch snapshots
/// (service/session.h) and keeps the overlay behind the per-session
/// update lock; concurrent queries only ever see materialized epochs.

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace saphyra {

class DeltaOverlay {
 public:
  /// \brief Overlay over `base`, initially empty (effective == base).
  /// Borrowed; the base must outlive the overlay (the serving tier pins
  /// the epoch that owns it).
  explicit DeltaOverlay(const Graph* base);

  NodeId num_nodes() const { return base_->num_nodes(); }

  /// \brief Effective undirected edge count: base − tombstoned + inserted.
  EdgeIndex num_edges() const {
    return base_->num_edges() - tombstoned_edges_ + inserted_edges_;
  }

  /// \brief True iff {u, v} exists in the effective graph.
  bool HasEdge(NodeId u, NodeId v) const;

  /// \brief Insert the undirected edge {u, v}.
  ///
  /// INVALID_ARGUMENT if an endpoint is out of range, u == v, or the edge
  /// already exists (live in the base or pending insert). Re-inserting a
  /// tombstoned base edge revives it in place.
  Status Insert(NodeId u, NodeId v);

  /// \brief Delete the undirected edge {u, v}.
  ///
  /// INVALID_ARGUMENT if an endpoint is out of range or the edge does not
  /// exist in the effective graph. Deleting a pending insert cancels it;
  /// deleting a base edge tombstones its two arcs.
  Status Remove(NodeId u, NodeId v);

  /// \brief Live deviations from the base: pending inserts + tombstoned
  /// base edges (undirected counts). The compaction budget is charged
  /// against this.
  uint64_t delta_size() const { return inserted_edges_ + tombstoned_edges_; }

  /// \brief Visit the effective neighbors of u in ascending order —
  /// identical sequence to `Materialize().neighbors(u)`.
  template <class F>
  void ForEachNeighbor(NodeId u, F&& f) const {
    const auto nbr = base_->neighbors(u);
    const EdgeIndex arc_base = base_->offset(u);
    const std::vector<NodeId>& ins = inserts_.empty()
                                         ? kNoInserts
                                         : inserts_[u];
    size_t bi = 0, ii = 0;
    while (bi < nbr.size() && ii < ins.size()) {
      // Invariant: an insert never duplicates a live base arc, so the
      // merge needs no equality branch for live entries.
      if (Tombstoned(arc_base + bi)) {
        ++bi;
      } else if (nbr[bi] < ins[ii]) {
        f(nbr[bi++]);
      } else {
        f(ins[ii++]);
      }
    }
    for (; bi < nbr.size(); ++bi) {
      if (!Tombstoned(arc_base + bi)) f(nbr[bi]);
    }
    for (; ii < ins.size(); ++ii) f(ins[ii]);
  }

  /// \brief Build the effective graph as a clean owned CSR.
  ///
  /// Bitwise identical (offsets, adjacency, max_degree) to
  /// GraphBuilder::Build over the effective edge list — a linear merge,
  /// never a sort.
  Graph Materialize() const;

  /// \brief Rebase onto `new_base` (typically a just-materialized epoch)
  /// and drop all deltas. The previous base may then be released by the
  /// owner; `new_base` is borrowed like the constructor's.
  void Rebase(const Graph* new_base);

  const Graph& base() const { return *base_; }

 private:
  bool Tombstoned(EdgeIndex arc) const {
    return !tombstones_.empty() &&
           (tombstones_[arc >> 6] >> (arc & 63)) & 1;
  }
  void SetTombstone(EdgeIndex arc) {
    if (tombstones_.empty()) {
      tombstones_.assign((base_->num_arcs() + 63) / 64, 0);
    }
    tombstones_[arc >> 6] |= uint64_t{1} << (arc & 63);
  }
  void ClearTombstone(EdgeIndex arc) {
    tombstones_[arc >> 6] &= ~(uint64_t{1} << (arc & 63));
  }
  /// Arc index of v inside u's base list, or kNoArc if absent.
  EdgeIndex BaseArc(NodeId u, NodeId v) const;
  /// True iff {u,v} is pending in the insert lists.
  bool Inserted(NodeId u, NodeId v) const;

  static const std::vector<NodeId> kNoInserts;
  static constexpr EdgeIndex kNoArc = static_cast<EdgeIndex>(-1);

  const Graph* base_;
  /// Per-vertex pending inserts, each sorted ascending; lazily sized.
  std::vector<std::vector<NodeId>> inserts_;
  /// Tombstone bitmap over base arcs; lazily sized on the first delete.
  std::vector<uint64_t> tombstones_;
  uint64_t inserted_edges_ = 0;    ///< pending undirected inserts
  uint64_t tombstoned_edges_ = 0;  ///< tombstoned undirected base edges
};

}  // namespace saphyra

#endif  // SAPHYRA_GRAPH_DELTA_OVERLAY_H_
