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

/// The block u and v share in `bcc` (the decomposition of `g`), or
/// kInvalidComp: the labels on u's arcs against those on v's, O(deg u +
/// deg v). Two nodes share at most one block.
uint32_t SharedBlock(const Graph& g, const BiconnectedComponents& bcc,
                     NodeId u, NodeId v) {
  auto labels_of = [&](NodeId x) {
    const auto first = bcc.arc_component.begin() + g.offset(x);
    std::vector<uint32_t> out(first, first + g.degree(x));
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  };
  const std::vector<uint32_t> at_u = labels_of(u);
  const std::vector<uint32_t> at_v = labels_of(v);
  uint32_t shared = kInvalidComp;
  std::set_intersection(at_u.begin(), at_u.end(), at_v.begin(), at_v.end(),
                        &shared);
  return shared;
}

/// Whether u and v keep two internally vertex-disjoint paths in block c
/// of `g` (arcs labeled c by `label`) once the edge {u,v} is removed. By
/// Menger's theorem that holds exactly when the block minus the edge is
/// still one block with the same members: a cut vertex of it would have
/// to separate u from v, since adding the edge back restores the block.
/// Unit-capacity vertex-disjoint flow: one BFS finds a first u–v path P,
/// then one BFS looks for an augmenting path in the residual graph where
/// every vertex but u and v is split into an in and an out copy.
bool KeepsTwoDisjointPaths(const Graph& g, const std::vector<uint32_t>& label,
                           uint32_t c, NodeId u, NodeId v) {
  const NodeId n = g.num_nodes();
  // Visit the arcs x -> y of block c minus the edge {u,v}; `fn` returns
  // true to stop the scan.
  auto for_each_arc = [&](NodeId x, const auto& fn) {
    const EdgeIndex base = g.offset(x);
    const auto nbr = g.neighbors(x);
    for (size_t i = 0; i < nbr.size(); ++i) {
      const NodeId y = nbr[i];
      if (label[base + i] != c || (x == u && y == v) || (x == v && y == u)) {
        continue;
      }
      if (fn(y)) return true;
    }
    return false;
  };

  // First path: BFS tree `pred` from u; P follows it back from v.
  std::vector<NodeId> pred(n, kInvalidNode);
  std::vector<NodeId> queue{u};
  pred[u] = u;
  for (size_t head = 0; head < queue.size() && pred[v] == kInvalidNode;
       ++head) {
    for_each_arc(queue[head], [&](NodeId y) {
      if (pred[y] != kInvalidNode) return false;
      pred[y] = queue[head];
      queue.push_back(y);
      return y == v;
    });
  }
  if (pred[v] == kInvalidNode) return false;
  std::vector<NodeId> succ(n, kInvalidNode);  // next vertex on P
  for (NodeId x = v; x != u; x = pred[x]) succ[pred[x]] = x;
  auto on_path = [&](NodeId x) { return x != u && succ[x] != kInvalidNode; };

  // Residual search over states 2x (x_in) and 2x+1 (x_out); u is the
  // source's out copy, reaching any arc into v ends it. Residual moves:
  // an unused arc x_out -> y_in (P's own arcs are saturated); x_in ->
  // x_out off P; backwards along P, x_out -> x_in and x_in -> pred_out.
  std::vector<uint8_t> seen(2 * static_cast<size_t>(n), 0);
  std::vector<uint64_t> states{2 * static_cast<uint64_t>(u) + 1};
  seen[states[0]] = 1;
  auto push = [&](NodeId x, bool out) {
    const uint64_t s = 2 * static_cast<uint64_t>(x) + (out ? 1 : 0);
    if (x == u || seen[s]) return;
    seen[s] = 1;
    states.push_back(s);
  };
  for (size_t head = 0; head < states.size(); ++head) {
    const NodeId x = static_cast<NodeId>(states[head] / 2);
    if (states[head] % 2 == 0) {
      if (!on_path(x)) {
        push(x, true);
      } else {
        push(pred[x], true);
      }
      continue;
    }
    const bool reached = for_each_arc(x, [&](NodeId y) {
      if (succ[x] == y) return false;
      if (y == v) return true;
      push(y, false);
      return false;
    });
    if (reached) return true;
    if (on_path(x)) push(x, false);
  }
  return false;
}

/// Whether relabeling `labels` — the new CSR's arc labels, with only the
/// two arcs of the mutated edge {u,v} of `block` added or removed —
/// keeps every component's smallest arc in id order, so the old ids are
/// still canonical. The block's smallest arc lies in the list of its
/// smallest member, so only a mutation there can move it; then one pass
/// checks that ids first appear in ascending order.
bool KeepsCanonicalIds(const BiconnectedComponents& old_bcc, uint32_t block,
                       NodeId u, NodeId v,
                       const std::vector<uint32_t>& labels) {
  if (std::min(u, v) != old_bcc.component_nodes[block][0]) return true;
  uint32_t next = 0;
  for (uint32_t c : labels) {
    if (c < next) continue;
    if (c != next) return false;
    ++next;
  }
  return true;
}

/// A per-arc array of the old CSR carried onto the new one: the two
/// mutated arcs' slots are spliced in at `lo` < `hi` (an insert; new-CSR
/// positions, filled with `at_lo` and `at_hi`) or out (a delete; old-CSR
/// positions), and every surviving entry passes through `map`. One
/// allocation and one pass — the arrays are arc-sized.
template <typename T, typename Map>
std::vector<T> SpliceArcs(const std::vector<T>& old, bool insert,
                          EdgeIndex lo, EdgeIndex hi, T at_lo, T at_hi,
                          const Map& map) {
  std::vector<T> out(insert ? old.size() + 2 : old.size() - 2);
  auto it = out.begin();
  auto copy = [&](EdgeIndex from, EdgeIndex to) {
    it = std::transform(old.begin() + from, old.begin() + to, it, map);
  };
  if (insert) {
    copy(0, lo);
    *it++ = at_lo;
    copy(lo, hi - 1);
    *it++ = at_hi;
    copy(hi - 1, old.size());
  } else {
    copy(0, lo);
    copy(lo + 1, hi);
    copy(hi + 1, old.size());
  }
  return out;
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
  // differ by one slot in u's list and one in v's list — the mutated
  // arcs, at positions in the new CSR for an insert and in the old one
  // for a delete — so the label array is the old one with two positions
  // inserted (as kInvalidComp, marking the new arcs dirty) or erased.
  const Graph& with_edge = insert ? new_graph : old_graph;
  EdgeIndex lo = ArcIndexOf(with_edge, mut.u, mut.v);
  EdgeIndex hi = ArcIndexOf(with_edge, mut.v, mut.u);
  if (lo > hi) std::swap(lo, hi);
  std::vector<uint32_t> labels =
      SpliceArcs(old_bcc.arc_component, insert, lo, hi, kInvalidComp,
                 kInvalidComp, [](uint32_t c) { return c; });
  std::vector<uint32_t> dirty;  // old blocks the mutation touches
  // The block whose member lists survive the mutation unchanged, if any:
  // the shared block of an insert's endpoints, or a delete's block when
  // the two-path test holds.
  uint32_t kept = kInvalidComp;
  if (insert) {
    kept = SharedBlock(old_graph, old_bcc, mut.u, mut.v);
    if (kept != kInvalidComp) {
      dirty.push_back(kept);
      labels[lo] = labels[hi] = kept;
    } else {
      BlockCutPath(old_graph, old_bcc, mut.u, mut.v, &dirty);
    }
  } else {
    const uint32_t block = old_bcc.arc_component[lo];
    dirty.push_back(block);
    if (old_bcc.component_nodes[block].size() > 2 &&
        KeepsTwoDisjointPaths(old_graph, old_bcc.arc_component, block,
                              mut.u, mut.v)) {
      kept = block;
    }
  }
  stats->dirty_blocks = static_cast<uint32_t>(dirty.size());

  if (kept != kInvalidComp &&
      KeepsCanonicalIds(old_bcc, kept, mut.u, mut.v, labels)) {
    // The partition stands: the node-level fields carry over (the member
    // lists are shared, not copied) and the arc arrays shift around the
    // two mutated arcs. Nothing is relabeled.
    stats->kept_partition = true;
    BiconnectedComponents out;
    out.num_components = old_bcc.num_components;
    out.arc_component = std::move(labels);
    out.is_cutpoint = old_bcc.is_cutpoint;
    out.component_nodes = old_bcc.component_nodes;
    out.node_component = old_bcc.node_component;
    out.cutpoint_comp_count_ = old_bcc.cutpoint_comp_count_;
    // A surviving arc's reverse moves with it.
    out.rev_arc = SpliceArcs(
        old_bcc.rev_arc, insert, lo, hi, hi, lo, [&](EdgeIndex e) {
          return insert ? e + (e >= lo) + (e + 1 >= hi)
                        : e - (e > lo) - (e > hi);
        });
    return out;
  }

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
    SAPHYRA_CHECK_MSG(st.ok(), st.ToString().c_str());
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
