#include "bicomp/incremental.h"

#include <algorithm>
#include <deque>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace saphyra {
namespace {

/// Absolute CSR arc index of (u -> v) in `g`; the edge must exist.
EdgeIndex ArcIndexOf(const Graph& g, NodeId u, NodeId v) {
  const auto nbr = g.neighbors(u);
  auto it = std::lower_bound(nbr.begin(), nbr.end(), v);
  SAPHYRA_CHECK(it != nbr.end() && *it == v);
  return g.offset(u) + static_cast<EdgeIndex>(it - nbr.begin());
}

/// Blocks on the block-cut-tree path between u and v in the old graph,
/// found by BFS over the block/cutpoint incidence forest (the path is
/// unique — the incidence graph is a forest — so the BFS order cannot
/// change the result). Returns false when u and v sit in different
/// connected components (or either is isolated): the inserted edge is a
/// bridge block of its own and no old block changes.
bool BlockCutPath(const Graph& g, const BiconnectedComponents& bcc,
                  NodeId u, NodeId v, std::vector<uint32_t>* path) {
  path->clear();
  if (g.degree(u) == 0 || g.degree(v) == 0) return false;
  const NodeComponentIndex index(bcc);  // O(n + Σ|C_i|) per repair
  std::vector<uint8_t> has_v(bcc.num_components, 0);
  for (uint32_t c : index.Components(v)) has_v[c] = 1;
  constexpr uint32_t kRoot = kInvalidComp;
  std::vector<uint32_t> parent(bcc.num_components, kInvalidComp);
  std::vector<uint8_t> visited(bcc.num_components, 0);
  std::deque<uint32_t> queue;
  uint32_t goal = kInvalidComp;
  for (uint32_t c : index.Components(u)) {
    visited[c] = 1;
    parent[c] = kRoot;
    if (has_v[c]) {
      goal = c;  // u and v share a block (kRoot parent ends the walk)
      break;
    }
    queue.push_back(c);
  }
  while (goal == kInvalidComp && !queue.empty()) {
    const uint32_t c = queue.front();
    queue.pop_front();
    for (NodeId w : bcc.component_nodes[c]) {
      if (!bcc.is_cutpoint[w]) continue;
      for (uint32_t c2 : index.Components(w)) {
        if (visited[c2]) continue;
        visited[c2] = 1;
        parent[c2] = c;
        if (has_v[c2]) {
          goal = c2;
          break;
        }
        queue.push_back(c2);
      }
      if (goal != kInvalidComp) break;
    }
  }
  if (goal == kInvalidComp) return false;  // different components
  for (uint32_t c = goal; c != kRoot; c = parent[c]) path->push_back(c);
  return true;
}

}  // namespace

BiconnectedComponents RepairBiconnectedComponents(
    const Graph& old_graph, const BiconnectedComponents& old_bcc,
    const Graph& new_graph, const EdgeMutation& mut,
    const IncrementalBicompOptions& opts, IncrementalBicompStats* stats) {
  const NodeId n = new_graph.num_nodes();
  SAPHYRA_CHECK(old_graph.num_nodes() == n);
  const bool insert = mut.kind == EdgeMutationKind::kInsert;
  SAPHYRA_CHECK(new_graph.num_arcs() ==
                old_graph.num_arcs() + (insert ? 2 : -2));
  IncrementalBicompStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = IncrementalBicompStats();

  // 1. Transfer the old per-arc labels onto the new CSR. The two graphs
  // differ by one slot in u's list and one in v's list, so the label
  // array is the old one with two positions inserted (as kInvalidComp,
  // marking the new arcs dirty) or erased.
  std::vector<uint32_t> labels(old_bcc.arc_component.begin(),
                               old_bcc.arc_component.end());
  std::vector<uint32_t> dirty;  // old blocks the mutation touches
  if (insert) {
    EdgeIndex p1 = ArcIndexOf(new_graph, mut.u, mut.v);
    EdgeIndex p2 = ArcIndexOf(new_graph, mut.v, mut.u);
    if (p1 > p2) std::swap(p1, p2);
    labels.insert(labels.begin() + p1, kInvalidComp);
    labels.insert(labels.begin() + p2, kInvalidComp);
    BlockCutPath(old_graph, old_bcc, mut.u, mut.v, &dirty);
  } else {
    EdgeIndex p1 = ArcIndexOf(old_graph, mut.u, mut.v);
    EdgeIndex p2 = ArcIndexOf(old_graph, mut.v, mut.u);
    dirty.push_back(old_bcc.arc_component[p1]);
    if (p1 > p2) std::swap(p1, p2);
    labels.erase(labels.begin() + p2);
    labels.erase(labels.begin() + p1);
  }
  stats->dirty_blocks = static_cast<uint32_t>(dirty.size());

  // 2. Measure the dirty region: the old dirty-block arcs that survive,
  // plus the inserted arcs.
  std::vector<uint8_t> is_dirty(old_bcc.num_components, 0);
  for (uint32_t c : dirty) is_dirty[c] = 1;
  uint64_t dirty_arcs = 0;
  for (uint32_t c : labels) {
    if (c == kInvalidComp || is_dirty[c]) ++dirty_arcs;
  }
  stats->dirty_arcs = dirty_arcs;

  uint32_t label_space = old_bcc.num_components;
  if (insert) {
    // 3a. Insert, closed form: the blocks on the block-cut-tree path and
    // the new edge become exactly one block (with an empty path, the new
    // edge alone — a bridge block). One fresh label, no recomputation.
    for (uint32_t& c : labels) {
      if (c == kInvalidComp || is_dirty[c]) c = label_space;
    }
    ++label_space;
  } else if (static_cast<double>(dirty_arcs) >
             opts.max_dirty_fraction *
                 static_cast<double>(new_graph.num_arcs())) {
    // Past the budget a full pass is cheaper than recomputing the split
    // block, and the canonicalization contract makes it emit the same
    // bytes.
    stats->fell_back = true;
    return ComputeBiconnectedComponentsParallel(new_graph,
                                                opts.fallback_threads);
  } else if (dirty_arcs != 0) {
    // 3b. Delete: recompute the decomposition of the surviving arcs of the
    // block that lost the edge, on a compact subgraph. Local ids are
    // order-preserving (sorted dirty vertex list), so sub adjacency order
    // matches the global CSR order and the graft below is a per-vertex
    // two-pointer walk.
    std::vector<NodeId> dirty_nodes;
    for (NodeId x = 0; x < n; ++x) {
      const EdgeIndex base = new_graph.offset(x);
      const NodeId deg = new_graph.degree(x);
      for (NodeId i = 0; i < deg; ++i) {
        if (is_dirty[labels[base + i]]) {
          dirty_nodes.push_back(x);
          break;
        }
      }
    }
    std::vector<NodeId> local_id(n, kInvalidNode);
    for (size_t i = 0; i < dirty_nodes.size(); ++i) {
      local_id[dirty_nodes[i]] = static_cast<NodeId>(i);
    }
    GraphBuilder builder;
    for (NodeId x : dirty_nodes) {
      const EdgeIndex base = new_graph.offset(x);
      const auto nbr = new_graph.neighbors(x);
      for (size_t i = 0; i < nbr.size(); ++i) {
        if (is_dirty[labels[base + i]] && x < nbr[i]) {
          builder.AddEdge(local_id[x], local_id[nbr[i]]);
        }
      }
    }
    Graph sub;
    Status st = builder.Build(static_cast<NodeId>(dirty_nodes.size()), &sub);
    SAPHYRA_CHECK_MSG(st.ok(), st.message());
    const BiconnectedComponents sub_bcc = ComputeBiconnectedComponents(sub);
    // Graft the sub-labels back, offset past the old label space so clean
    // and recomputed labels never collide before the canonical renumber.
    for (NodeId lx = 0; lx < sub.num_nodes(); ++lx) {
      const NodeId gx = dirty_nodes[lx];
      const auto sub_nbr = sub.neighbors(lx);
      const auto new_nbr = new_graph.neighbors(gx);
      const EdgeIndex gbase = new_graph.offset(gx);
      size_t gi = 0;
      for (size_t si = 0; si < sub_nbr.size(); ++si) {
        const NodeId gy = dirty_nodes[sub_nbr[si]];
        while (new_nbr[gi] != gy) ++gi;
        labels[gbase + gi] =
            label_space + sub_bcc.arc_component[sub.offset(lx) + si];
        ++gi;
      }
    }
    label_space += sub_bcc.num_components;
  }
  // Deleting a bridge leaves dirty_arcs == 0 with no new labels: its old
  // label simply disappears and the renumber closes the gap.

  BiconnectedComponents out;
  out.arc_component = std::move(labels);
  out.rev_arc = ComputeReverseArcs(new_graph);
  FinalizeBicompFields(new_graph, label_space, /*derive_cutpoints=*/true,
                       &out);
  return out;
}

}  // namespace saphyra
