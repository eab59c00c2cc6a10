#include "bicomp/incremental.h"

#include <algorithm>
#include <iterator>
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

/// The blocks on the block-cut-tree path between u and v in `bcc` (the
/// decomposition of `g`) and the cutpoints joining consecutive ones.
struct BlockPath {
  std::vector<uint32_t> blocks;   // ascending
  std::vector<NodeId> cutpoints;  // ascending
};

/// Finds the block-cut-tree path between u and v with one search from
/// each end over the arc labels: a node's blocks are the labels on its
/// arcs, and a block's neighbors are its cutpoints' blocks. The side whose
/// next block has fewer members expands, so a leaf joined to the core
/// reaches the core block from the leaf's side without scanning it. A
/// block is claimed by the first side to reach it; the first block one
/// side finds claimed by the other lies on the path (a tree vertex is
/// reached through its parent toward the side's root, so the other side
/// can hold only the next block along the path). A shared block of u and
/// v is a one-block path. Returns false when u and v sit in different
/// connected components (or either is isolated).
bool BlockCutPath(const Graph& g, const BiconnectedComponents& bcc, NodeId u,
                  NodeId v, BlockPath* path) {
  const uint32_t num = bcc.num_components;
  std::vector<uint8_t> side(num, 0);  // 0 unclaimed, 1 + the claiming side
  std::vector<uint32_t> parent(num);  // previous block, kInvalidComp: root
  std::vector<NodeId> via(num);       // cutpoint toward the parent (or root)
  std::vector<uint32_t> queue[2];
  size_t head[2] = {0, 0};
  // Meeting point: one side reached block `meet`, claimed by the other,
  // from its block `meet_from` (kInvalidComp: from its root) through node
  // `meet_via`.
  uint32_t meet = kInvalidComp;
  uint32_t meet_from = kInvalidComp;
  NodeId meet_via = kInvalidNode;
  auto claim_blocks_of = [&](NodeId x, int s, uint32_t from) {
    const auto first = bcc.arc_component.begin() + g.offset(x);
    for (auto it = first; it != first + g.degree(x); ++it) {
      const uint32_t c = *it;
      if (side[c] == s + 1) continue;
      if (side[c] != 0) {
        meet = c;
        meet_from = from;
        meet_via = x;
        return true;
      }
      side[c] = static_cast<uint8_t>(s + 1);
      parent[c] = from;
      via[c] = x;
      queue[s].push_back(c);
    }
    return false;
  };
  bool met = claim_blocks_of(u, 0, kInvalidComp) ||
             claim_blocks_of(v, 1, kInvalidComp);
  while (!met && head[0] < queue[0].size() && head[1] < queue[1].size()) {
    const int s = bcc.component_nodes[queue[0][head[0]]].size() <=
                          bcc.component_nodes[queue[1][head[1]]].size()
                      ? 0
                      : 1;
    const uint32_t c = queue[s][head[s]++];
    for (NodeId w : bcc.component_nodes[c]) {
      if (w == via[c] || !bcc.is_cutpoint[w]) continue;
      if ((met = claim_blocks_of(w, s, c))) break;
    }
  }
  if (!met) return false;
  path->blocks.clear();
  path->cutpoints.clear();
  if (meet_from != kInvalidComp) path->cutpoints.push_back(meet_via);
  for (uint32_t c : {meet_from, meet}) {
    for (; c != kInvalidComp; c = parent[c]) {
      path->blocks.push_back(c);
      if (parent[c] != kInvalidComp) path->cutpoints.push_back(via[c]);
    }
  }
  std::sort(path->blocks.begin(), path->blocks.end());
  std::sort(path->cutpoints.begin(), path->cutpoints.end());
  return true;
}

/// Whether u and v keep two internally vertex-disjoint paths in block c
/// (its view in `views`, which still holds the edge {u,v}) once the edge
/// is removed. By Menger's theorem that holds exactly when the block
/// minus the edge is still one block with the same members: a cut vertex
/// of it would have to separate u from v, since adding the edge back
/// restores the block. Unit-capacity vertex-disjoint flow over the
/// block's local ids: one BFS finds a first u–v path P, then one BFS
/// looks for an augmenting path in the residual graph where every vertex
/// but u and v is split into an in and an out copy.
bool KeepsTwoDisjointPaths(const ComponentViews& views, uint32_t c,
                           NodeId global_u, NodeId global_v) {
  const NodeId n = views.size(c);
  const NodeId u = views.ToLocal(c, global_u);
  const NodeId v = views.ToLocal(c, global_v);
  SAPHYRA_CHECK(u != kInvalidNode && v != kInvalidNode);
  // Visit the arcs x -> y of block c minus the edge {u,v}; `fn` returns
  // true to stop the scan.
  auto for_each_arc = [&](NodeId x, const auto& fn) {
    for (NodeId y : views.Neighbors(c, x)) {
      if ((x == u && y == v) || (x == v && y == u)) continue;
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

/// Whether deleting the edge {u,v} of `block` — `labels` are the new
/// CSR's arc labels, the old ones minus the edge's two arcs — keeps every
/// component's smallest arc in id order, so the old ids are still
/// canonical. The block's smallest arc lies in the list of its
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

/// rev_arc carried onto the new CSR: a surviving arc's reverse moves with
/// it, and the mutated arcs (`lo` < `hi`) are each other's reverse.
std::vector<EdgeIndex> SpliceRevArcs(const std::vector<EdgeIndex>& old,
                                     bool insert, EdgeIndex lo,
                                     EdgeIndex hi) {
  return SpliceArcs(old, insert, lo, hi, hi, lo, [&](EdgeIndex e) {
    return insert ? e + (e >= lo) + (e + 1 >= hi) : e - (e > lo) - (e > hi);
  });
}

/// The partition stands: the node-level fields carry over (the member
/// lists are shared, not copied) and the arc arrays shift around the two
/// mutated arcs. Nothing is relabeled.
BiconnectedComponents KeepPartition(const BiconnectedComponents& old,
                                    std::vector<uint32_t> labels, bool insert,
                                    EdgeIndex lo, EdgeIndex hi) {
  BiconnectedComponents out;
  out.num_components = old.num_components;
  out.arc_component = std::move(labels);
  out.is_cutpoint = old.is_cutpoint;
  out.component_nodes = old.component_nodes;
  out.node_component = old.node_component;
  out.cutpoint_comp_count_ = old.cutpoint_comp_count_;
  out.rev_arc = SpliceRevArcs(old.rev_arc, insert, lo, hi);
  return out;
}

/// Insert {u,v} (new arcs at `lo` < `hi`) whose block-cut-tree path is
/// `path`: the path blocks and the new edge become one block, spliced
/// into the old decomposition (see the file comment). A one-block path
/// whose id does not move keeps the partition.
BiconnectedComponents MergePath(const Graph& old_graph,
                                const BiconnectedComponents& old,
                                const ComponentViews& old_views,
                                EdgeIndex lo, EdgeIndex hi, BlockPath path,
                                IncrementalBicompStats* stats) {
  const uint32_t num_old = old.num_components;
  // The merged block's smallest arc is the first path block's (first in
  // its smallest member's list) or the new arc lo. In the second case the
  // blocks ahead of it are those whose smallest arc precedes lo: by the
  // canonical order, the labels found before lo.
  const uint32_t first = path.blocks[0];
  EdgeIndex e = old_graph.offset(old.component_nodes[first][0]);
  while (old.arc_component[e] != first) ++e;
  uint32_t merged_id = first;
  if (lo < e + (e >= lo) + (e + 1 >= hi)) {
    merged_id = lo == 0 ? 0
                        : 1 + *std::max_element(old.arc_component.begin(),
                                                old.arc_component.begin() + lo);
  }
  if (path.blocks.size() == 1 && merged_id == first) {
    stats->kept_partition = true;
    return KeepPartition(
        old,
        SpliceArcs(old.arc_component, true, lo, hi, first, first,
                   [](uint32_t c) { return c; }),
        true, lo, hi);
  }

  // Every other block keeps its order: its rank among them, shifted past
  // the merged block.
  BlockMerge& m = stats->merge;
  m.blocks = std::move(path.blocks);
  m.cutpoints = std::move(path.cutpoints);
  const std::vector<uint32_t>& blocks = m.blocks;
  m.merged_id = merged_id;
  m.next_old = num_old;
  std::vector<uint32_t> renumber(num_old);
  uint32_t rank = 0;
  for (uint32_t c = 0, b = 0; c < num_old; ++c) {
    if (b < blocks.size() && blocks[b] == c) {
      renumber[c] = merged_id;
      ++b;
      continue;
    }
    if (rank == merged_id && m.next_old == num_old) m.next_old = c;
    renumber[c] = rank + (rank >= merged_id ? 1 : 0);
    ++rank;
  }
  stats->dirty_arcs = 2;
  for (uint32_t b : blocks) stats->dirty_arcs += old_views.num_arcs(b);

  BiconnectedComponents out;
  out.num_components = num_old - static_cast<uint32_t>(blocks.size()) + 1;
  out.arc_component =
      SpliceArcs(old.arc_component, true, lo, hi, merged_id, merged_id,
                 [&](uint32_t c) { return renumber[c]; });
  out.rev_arc = SpliceRevArcs(old.rev_arc, true, lo, hi);

  // The merged members: the union of the path blocks', smallest first so
  // the large block is merged once.
  std::vector<uint32_t> by_size = blocks;
  std::sort(by_size.begin(), by_size.end(), [&](uint32_t a, uint32_t b) {
    return old.component_nodes[a].size() < old.component_nodes[b].size();
  });
  std::vector<NodeId> members;
  std::vector<NodeId> merged;
  for (uint32_t b : by_size) {
    const auto add = old.component_nodes[b];
    merged.clear();
    std::set_union(members.begin(), members.end(), add.begin(), add.end(),
                   std::back_inserter(merged));
    members.swap(merged);
  }
  uint64_t path_members = 0;
  for (uint32_t b : blocks) path_members += old.component_nodes[b].size();
  SAPHYRA_CHECK(members.size() + m.cutpoints.size() == path_members);

  const std::span<const uint64_t> old_begin =
      old.component_nodes.begin().span();
  std::vector<uint64_t> begin{0};
  begin.reserve(out.num_components + 1);
  m.Walk(
      num_old, [](uint32_t c) { return uint64_t{c}; },
      [&](uint64_t from, uint64_t to) {
        for (uint64_t c = from; c < to; ++c) {
          begin.push_back(begin.back() + old_begin[c + 1] - old_begin[c]);
        }
      },
      [&] { begin.push_back(begin.back() + members.size()); });
  std::vector<NodeId> nodes = m.Splice(
      old.component_nodes.nodes().span(), num_old,
      [&](uint32_t c) { return old_begin[c]; }, members.size());
  std::copy(members.begin(), members.end(),
            nodes.begin() + static_cast<ptrdiff_t>(begin[merged_id]));
  out.component_nodes = ComponentMembers(ShareArray(std::move(begin)),
                                         ShareArray(std::move(nodes)));

  // Node fields: a node's smallest block is renumbered, or is the merged
  // block; each path cutpoint loses one membership and stops being a
  // cutpoint at one.
  const NodeId n = old_graph.num_nodes();
  std::vector<uint32_t> node_component(n);
  for (NodeId x = 0; x < n; ++x) {
    const uint32_t c = old.node_component[x];
    node_component[x] = c == kInvalidComp ? c : renumber[c];
  }
  for (NodeId x : members) {
    node_component[x] = std::min(node_component[x], merged_id);
  }
  out.node_component = ShareArray(std::move(node_component));
  std::vector<uint32_t> counts(old.cutpoint_comp_count_.begin(),
                               old.cutpoint_comp_count_.end());
  bool cutpoints_change = false;
  for (NodeId x : m.cutpoints) {
    if (--counts[x] == 1) cutpoints_change = true;
  }
  out.cutpoint_comp_count_ = ShareArray(std::move(counts));
  if (cutpoints_change) {
    std::vector<uint8_t> is_cutpoint(old.is_cutpoint.begin(),
                                     old.is_cutpoint.end());
    for (NodeId x : m.cutpoints) {
      is_cutpoint[x] = out.cutpoint_comp_count_[x] > 1 ? 1 : 0;
    }
    out.is_cutpoint = ShareArray(std::move(is_cutpoint));
  } else {
    out.is_cutpoint = old.is_cutpoint;
  }
  return out;
}

}  // namespace

BiconnectedComponents RepairBiconnectedComponents(
    const Graph& old_graph, const BiconnectedComponents& old_bcc,
    const ComponentViews& old_views, const Graph& new_graph,
    const EdgeMutation& mut, const IncrementalBicompOptions& opts,
    IncrementalBicompStats* stats) {
  const NodeId n = new_graph.num_nodes();
  SAPHYRA_CHECK(old_graph.num_nodes() == n);
  const bool insert = mut.kind == EdgeMutationKind::kInsert;
  SAPHYRA_CHECK(new_graph.num_arcs() ==
                old_graph.num_arcs() + (insert ? 2 : -2));
  SAPHYRA_CHECK(old_views.num_components() == old_bcc.num_components);
  IncrementalBicompStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = IncrementalBicompStats();

  // The two graphs differ by one slot in u's list and one in v's list —
  // the mutated arcs, at positions in the new CSR for an insert and in
  // the old one for a delete.
  const Graph& with_edge = insert ? new_graph : old_graph;
  EdgeIndex lo = ArcIndexOf(with_edge, mut.u, mut.v);
  EdgeIndex hi = ArcIndexOf(with_edge, mut.v, mut.u);
  if (lo > hi) std::swap(lo, hi);
  uint32_t label_space = old_bcc.num_components;
  std::vector<uint32_t> labels;
  if (insert) {
    BlockPath path;
    if (BlockCutPath(old_graph, old_bcc, mut.u, mut.v, &path)) {
      stats->dirty_blocks = static_cast<uint32_t>(path.blocks.size());
      return MergePath(old_graph, old_bcc, old_views, lo, hi,
                       std::move(path), stats);
    }
    // Across connected components the new edge is a bridge block of its
    // own: one fresh label.
    labels = SpliceArcs(old_bcc.arc_component, true, lo, hi, label_space,
                        label_space, [](uint32_t c) { return c; });
    ++label_space;
    stats->dirty_arcs = 2;
  } else {
    // Transfer the old per-arc labels onto the new CSR: the old array
    // with the two deleted positions erased.
    labels = SpliceArcs(old_bcc.arc_component, false, lo, hi, kInvalidComp,
                        kInvalidComp, [](uint32_t c) { return c; });
    const uint32_t block = old_bcc.arc_component[lo];
    stats->dirty_blocks = 1;
    if (old_bcc.component_nodes[block].size() > 2 &&
        KeepsTwoDisjointPaths(old_views, block, mut.u, mut.v) &&
        KeepsCanonicalIds(old_bcc, block, mut.u, mut.v, labels)) {
      stats->kept_partition = true;
      return KeepPartition(old_bcc, std::move(labels), false, lo, hi);
    }

    // Measure the dirty region: the block's surviving arcs.
    uint64_t dirty_arcs = 0;
    for (uint32_t c : labels) dirty_arcs += c == block ? 1 : 0;
    stats->dirty_arcs = dirty_arcs;
    if (static_cast<double>(dirty_arcs) >
        opts.max_dirty_fraction * static_cast<double>(new_graph.num_arcs())) {
      // Past the budget a full pass is cheaper than recomputing the split
      // block, and the canonicalization contract makes it emit the same
      // bytes.
      stats->fell_back = true;
      return ComputeBiconnectedComponents(new_graph);
    }
    if (dirty_arcs != 0) {
      // Recompute the decomposition of the surviving arcs of the block
      // that lost the edge, on a compact subgraph. Local ids are
      // order-preserving (sorted dirty vertex list), so sub adjacency
      // order matches the global CSR order and the graft below is a
      // per-vertex two-pointer walk.
      std::vector<NodeId> dirty_nodes;
      for (NodeId x = 0; x < n; ++x) {
        const EdgeIndex base = new_graph.offset(x);
        const NodeId deg = new_graph.degree(x);
        for (NodeId i = 0; i < deg; ++i) {
          if (labels[base + i] == block) {
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
          if (labels[base + i] == block && x < nbr[i]) {
            builder.AddEdge(local_id[x], local_id[nbr[i]]);
          }
        }
      }
      Graph sub;
      Status st =
          builder.Build(static_cast<NodeId>(dirty_nodes.size()), &sub);
      SAPHYRA_CHECK_MSG(st.ok(), st.ToString().c_str());
      const BiconnectedComponents sub_bcc = ComputeBiconnectedComponents(sub);
      // Graft the sub-labels back, offset past the old label space so
      // clean and recomputed labels never collide before the canonical
      // renumber.
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
  }

  BiconnectedComponents out;
  out.arc_component = std::move(labels);
  out.rev_arc = ComputeReverseArcs(new_graph);
  FinalizeBicompFields(new_graph, label_space, /*derive_cutpoints=*/true,
                       &out);
  return out;
}

}  // namespace saphyra
