#include "bicomp/component_view.h"

#include <algorithm>
#include <vector>

#include "util/logging.h"

namespace saphyra {

ComponentViews::ComponentViews(const Graph& g,
                               const BiconnectedComponents& bcc) {
  // The node slices are the decomposition's member lists themselves:
  // shared, not copied.
  const uint32_t num_comps = bcc.num_components;
  node_begin_ = bcc.component_nodes.begin();
  nodes_ = bcc.component_nodes.nodes();
  const std::span<const uint64_t> node_begin = node_begin_.span();
  for (uint32_t c = 0; c < num_comps; ++c) {
    max_size_ = std::max(max_size_, size(c));
  }
  const size_t total_nodes = node_begin[num_comps];

  // Pass 1: the local id of every arc's source in the arc's component,
  // looked up once per run of same-component arcs, and per-local-node
  // degrees, accumulated into offsets[slot+1] so the prefix sum below
  // turns them into absolute adjacency offsets.
  const NodeComponentIndex index(bcc);
  std::vector<NodeId> src_local(g.num_arcs());
  std::vector<EdgeIndex> offsets(total_nodes + 1, 0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const EdgeIndex base = g.offset(u);
    const NodeId deg = g.degree(u);
    uint32_t last_c = kInvalidComp;
    NodeId local = 0;
    size_t slot = 0;
    for (NodeId i = 0; i < deg; ++i) {
      const uint32_t c = bcc.arc_component[base + i];
      SAPHYRA_CHECK(c != kInvalidComp);
      if (c != last_c) {
        last_c = c;
        local = index.LocalId(u, c);
        slot = node_begin[c] + local;
      }
      src_local[base + i] = local;
      ++offsets[slot + 1];
    }
  }
  for (size_t i = 1; i <= total_nodes; ++i) offsets[i] += offsets[i - 1];
  SAPHYRA_CHECK(offsets[total_nodes] == g.num_arcs());

  // Pass 2: scatter each arc into its component slot. An arc's neighbor
  // has, in the same component, the local id its reverse arc's source
  // got in pass 1 — no search. Scanning u ascending and its (sorted)
  // global adjacency in order writes each local list sorted by global —
  // hence by local — neighbor id.
  SAPHYRA_CHECK(bcc.rev_arc.size() == g.num_arcs());
  std::vector<NodeId> adj(g.num_arcs(), 0);
  std::vector<EdgeIndex> cursor(offsets.begin(), offsets.end() - 1);
  for (EdgeIndex e = 0; e < g.num_arcs(); ++e) {
    const uint32_t c = bcc.arc_component[e];
    const EdgeIndex rev = bcc.rev_arc[e];
    SAPHYRA_CHECK(bcc.arc_component[rev] == c);  // neighbor is a member
    adj[cursor[node_begin[c] + src_local[e]]++] = src_local[rev];
  }

  offsets_ = std::move(offsets);
  adj_ = std::move(adj);
}

ComponentViews ComponentViews::WithEdge(uint32_t c, NodeId u, NodeId v,
                                        bool insert) const {
  // Each endpoint's change: its node slot and the absolute adjacency
  // position where the other endpoint's local id goes in or comes out.
  struct Change {
    size_t slot;
    EdgeIndex at;
    NodeId value;
  };
  auto locate = [&](NodeId from, NodeId to) {
    SAPHYRA_CHECK(from != kInvalidNode && to != kInvalidNode);
    const auto nbr = Neighbors(c, from);
    const auto it = std::lower_bound(nbr.begin(), nbr.end(), to);
    SAPHYRA_CHECK(insert == (it == nbr.end() || *it != to));
    const size_t slot = node_begin_[c] + from;
    const auto pos = static_cast<EdgeIndex>(it - nbr.begin());
    return Change{slot, offsets_[slot] + pos, to};
  };
  const NodeId lu = ToLocal(c, u);
  const NodeId lv = ToLocal(c, v);
  Change x = locate(lu, lv);
  Change y = locate(lv, lu);
  if (x.slot > y.slot) std::swap(x, y);  // then x.at <= y.at

  const auto old_adj = adj_.span();
  std::vector<NodeId> adj;
  adj.reserve(insert ? old_adj.size() + 2 : old_adj.size() - 2);
  const size_t skip = insert ? 0 : 1;
  adj.insert(adj.end(), old_adj.begin(), old_adj.begin() + x.at);
  if (insert) adj.push_back(x.value);
  adj.insert(adj.end(), old_adj.begin() + x.at + skip,
             old_adj.begin() + y.at);
  if (insert) adj.push_back(y.value);
  adj.insert(adj.end(), old_adj.begin() + y.at + skip, old_adj.end());

  // Offsets past x's slot move by one arc, past y's slot by two.
  const EdgeIndex step = insert ? 1 : static_cast<EdgeIndex>(-1);
  std::vector<EdgeIndex> offsets(offsets_.begin(), offsets_.end());
  for (size_t k = x.slot + 1; k <= y.slot; ++k) offsets[k] += step;
  for (size_t k = y.slot + 1; k < offsets.size(); ++k) offsets[k] += 2 * step;

  ComponentViews out;
  out.node_begin_ = node_begin_;
  out.nodes_ = nodes_;
  out.offsets_ = std::move(offsets);
  out.adj_ = std::move(adj);
  out.max_size_ = max_size_;
  return out;
}

Status ComponentViews::FromParts(ArrayRef<uint64_t> node_begin,
                                 ArrayRef<NodeId> nodes,
                                 ArrayRef<EdgeIndex> offsets,
                                 ArrayRef<NodeId> adj, NodeId max_size,
                                 ComponentViews* out) {
  if (node_begin.empty() || offsets.empty()) {
    return Status::InvalidArgument("component view arrays must be non-empty");
  }
  const uint64_t total_nodes = node_begin[node_begin.size() - 1];
  if (nodes.size() != total_nodes || offsets.size() != total_nodes + 1) {
    return Status::InvalidArgument(
        "component view node arrays do not line up");
  }
  // Interior node_begin entries bound every nodes(c)/Neighbors(c, ·) span;
  // a non-monotonic (corrupt) entry would hand out spans with end < begin
  // or past the backing storage. O(ℓ) — negligible next to the load.
  if (node_begin[0] != 0) {
    return Status::InvalidArgument("component view node_begin must start 0");
  }
  for (size_t i = 1; i < node_begin.size(); ++i) {
    if (node_begin[i - 1] > node_begin[i]) {
      return Status::InvalidArgument(
          "component view node_begin is not monotonic");
    }
  }
  if (offsets[0] != 0 || offsets[total_nodes] != adj.size()) {
    return Status::InvalidArgument(
        "component view offsets do not bound the adjacency");
  }
  out->node_begin_ = std::move(node_begin);
  out->nodes_ = std::move(nodes);
  out->offsets_ = std::move(offsets);
  out->adj_ = std::move(adj);
  out->max_size_ = max_size;
  return Status::OK();
}

NodeId ComponentViews::ToLocal(uint32_t c, NodeId global) const {
  const auto members = nodes(c);
  auto it = std::lower_bound(members.begin(), members.end(), global);
  if (it == members.end() || *it != global) return kInvalidNode;
  return static_cast<NodeId>(it - members.begin());
}

}  // namespace saphyra
