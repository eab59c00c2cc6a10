#include "bicomp/component_view.h"

#include <algorithm>
#include <vector>

#include "util/logging.h"

namespace saphyra {

namespace {

/// Appends block c's local CSR built from g's arcs to `offsets` and
/// `adj`: each member's neighbors in the block, as local ids, ascending.
/// A member scans its adjacency for the arcs labeled c, unless its degree
/// dwarfs the block (a hub in a small block); then it binary-searches for
/// the other members, since an edge between two members of a block lies
/// in it. `local` is scratch of size n.
void BuildSlice(const Graph& g, const BiconnectedComponents& bcc, uint32_t c,
                std::vector<NodeId>* local, std::vector<EdgeIndex>* offsets,
                std::vector<NodeId>* adj) {
  const auto members = bcc.component_nodes[c];
  for (size_t i = 0; i < members.size(); ++i) {
    (*local)[members[i]] = static_cast<NodeId>(i);
  }
  for (size_t i = 0; i < members.size(); ++i) {
    offsets->push_back(adj->size());
    const NodeId x = members[i];
    const auto nbr = g.neighbors(x);
    if (8 * members.size() < nbr.size()) {
      for (size_t j = 0; j < members.size(); ++j) {
        if (j != i && std::binary_search(nbr.begin(), nbr.end(), members[j])) {
          adj->push_back(static_cast<NodeId>(j));
        }
      }
      continue;
    }
    const uint32_t* label = bcc.arc_component.data() + g.offset(x);
    for (size_t k = 0; k < nbr.size(); ++k) {
      if (label[k] == c) adj->push_back((*local)[nbr[k]]);
    }
  }
}

}  // namespace

ComponentViews::ComponentViews(const Graph& g,
                               const BiconnectedComponents& bcc,
                               const ComponentViews* parent,
                               const BlockRemap* remap) {
  // The node slices are the decomposition's member lists themselves:
  // shared, not copied.
  const uint32_t num_comps = bcc.num_components;
  node_begin_ = bcc.component_nodes.begin();
  nodes_ = bcc.component_nodes.nodes();
  const std::span<const uint64_t> node_begin = node_begin_.span();
  for (uint32_t c = 0; c < num_comps; ++c) {
    max_size_ = std::max(
        max_size_, static_cast<NodeId>(node_begin[c + 1] - node_begin[c]));
  }
  SAPHYRA_CHECK(parent == nullptr ||
                (remap != nullptr && remap->from.size() == num_comps));

  // The slices in block order: a block with a new member list (every
  // block without a parent) built from g's arcs, a run of blocks carried
  // from consecutive parent blocks by one copy of the parent's, the edge
  // block with the edge spliced.
  std::vector<EdgeIndex> offsets;
  offsets.reserve(bcc.component_nodes.nodes().size() + 1);
  std::vector<NodeId> adj;
  adj.reserve(g.num_arcs());
  std::vector<NodeId> local;
  for (uint32_t c = 0; c < num_comps;) {
    const uint32_t first = parent == nullptr ? kInvalidComp : remap->from[c];
    if (first == kInvalidComp) {
      if (local.empty()) local.resize(g.num_nodes());
      BuildSlice(g, bcc, c, &local, &offsets, &adj);
      ++c;
      continue;
    }
    const bool edge = c == remap->edge_block;
    uint32_t end = c + 1;
    while (!edge && end < num_comps && end != remap->edge_block &&
           remap->from[end] == first + (end - c)) {
      ++end;
    }
    parent->CopySlices(first, first + (end - c), edge ? remap : nullptr,
                       &offsets, &adj);
    c = end;
  }
  offsets.push_back(adj.size());
  SAPHYRA_CHECK(adj.size() == g.num_arcs() &&
                offsets.size() == bcc.component_nodes.nodes().size() + 1);
  offsets_ = std::move(offsets);
  adj_ = std::move(adj);
}

void ComponentViews::CopySlices(uint32_t first, uint32_t last,
                                const BlockRemap* edge,
                                std::vector<EdgeIndex>* offsets,
                                std::vector<NodeId>* adj) const {
  const uint64_t from = node_begin_[first];
  const uint64_t to = node_begin_[last];
  const EdgeIndex adj_from = offsets_[from];
  const EdgeIndex adj_to = offsets_[to];
  const EdgeIndex shift = adj->size() - adj_from;  // mod 2^64
  const size_t at = offsets->size();
  offsets->insert(offsets->end(), offsets_.begin() + from,
                  offsets_.begin() + to);
  EdgeIndex* out = offsets->data() + at - from;
  if (edge == nullptr) {
    if (shift != 0) {
      for (uint64_t k = from; k < to; ++k) out[k] += shift;
    }
    adj->insert(adj->end(), adj_.begin() + adj_from, adj_.begin() + adj_to);
    return;
  }
  // Each endpoint's change: its node slot and the absolute adjacency
  // position where the other endpoint's local id goes in or comes out.
  struct Change {
    uint64_t slot;
    EdgeIndex at;
    NodeId value;
  };
  auto locate = [&](NodeId from_local, NodeId to_local) {
    SAPHYRA_CHECK(from_local != kInvalidNode && to_local != kInvalidNode);
    const auto nbr = Neighbors(first, from_local);
    const auto it = std::lower_bound(nbr.begin(), nbr.end(), to_local);
    SAPHYRA_CHECK(edge->insert == (it == nbr.end() || *it != to_local));
    const uint64_t slot = from + from_local;
    return Change{slot,
                  offsets_[slot] + static_cast<EdgeIndex>(it - nbr.begin()),
                  to_local};
  };
  const NodeId lu = ToLocal(first, edge->u);
  const NodeId lv = ToLocal(first, edge->v);
  Change x = locate(lu, lv);
  Change y = locate(lv, lu);
  if (x.slot > y.slot) std::swap(x, y);  // then x.at <= y.at

  // Offsets past x's slot move by one arc, past y's slot by two.
  const EdgeIndex step = edge->insert ? 1 : static_cast<EdgeIndex>(-1);
  auto add = [&](uint64_t lo, uint64_t hi, EdgeIndex by) {
    for (uint64_t k = lo; k < hi; ++k) out[k] += by;
  };
  add(from, x.slot + 1, shift);
  add(x.slot + 1, y.slot + 1, shift + step);
  add(y.slot + 1, to, shift + 2 * step);
  const EdgeIndex skip = edge->insert ? 0 : 1;
  adj->insert(adj->end(), adj_.begin() + adj_from, adj_.begin() + x.at);
  if (edge->insert) adj->push_back(x.value);
  adj->insert(adj->end(), adj_.begin() + x.at + skip, adj_.begin() + y.at);
  if (edge->insert) adj->push_back(y.value);
  adj->insert(adj->end(), adj_.begin() + y.at + skip, adj_.begin() + adj_to);
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
