#include "bicomp/biconnected.h"

#include <algorithm>

#include "util/logging.h"

namespace saphyra {

std::vector<EdgeIndex> ComputeReverseArcs(const Graph& g) {
  // Counting sweep instead of a per-arc binary search: scanning sources in
  // ascending order visits each node's in-neighbors in ascending order too
  // (adjacency lists are sorted and deduplicated), so the next free slot in
  // u's list is exactly where the current source sits in it.
  std::vector<EdgeIndex> rev(g.num_arcs());
  std::vector<NodeId> cursor(g.num_nodes(), 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EdgeIndex base = g.offset(v);
    auto nbr = g.neighbors(v);
    for (size_t i = 0; i < nbr.size(); ++i) {
      NodeId u = nbr[i];
      rev[g.offset(u) + cursor[u]++] = base + static_cast<EdgeIndex>(i);
    }
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    // Every arc (u, v) must have been matched by the reverse arc (v, u);
    // anything else means the adjacency structure is not symmetric.
    SAPHYRA_CHECK(cursor[u] == g.degree(u));
  }
  return rev;
}

NodeComponentIndex::NodeComponentIndex(const BiconnectedComponents& bcc)
    : first_(bcc.node_component.size() + 1, 0) {
  const NodeId n = static_cast<NodeId>(bcc.node_component.size());
  for (NodeId v = 0; v < n; ++v) {
    first_[v + 1] = first_[v] + bcc.NumComponentsOf(v);
  }
  comp_.resize(first_[n]);
  local_.resize(first_[n]);
  std::vector<uint64_t> fill(first_.begin(), first_.end() - 1);
  for (uint32_t c = 0; c < bcc.num_components; ++c) {
    const auto& members = bcc.component_nodes[c];
    for (size_t i = 0; i < members.size(); ++i) {
      const uint64_t at = fill[members[i]]++;
      SAPHYRA_CHECK(at < first_[members[i] + 1]);
      comp_[at] = c;
      local_[at] = static_cast<NodeId>(i);
    }
  }
}

NodeId NodeComponentIndex::LocalId(NodeId v, uint32_t c) const {
  const auto comps = Components(v);
  const auto it = std::lower_bound(comps.begin(), comps.end(), c);
  SAPHYRA_CHECK(it != comps.end() && *it == c);
  return local_[first_[v] + static_cast<uint64_t>(it - comps.begin())];
}

namespace {

/// Explicit DFS frame for the iterative Hopcroft–Tarjan algorithm.
struct Frame {
  NodeId v;
  EdgeIndex arc;      // next arc of v to examine (absolute CSR index)
  EdgeIndex arc_end;  // one past v's last arc
  EdgeIndex parent_arc;  // arc (parent -> v) that entered v, or kNone
};

constexpr EdgeIndex kNoArc = static_cast<EdgeIndex>(-1);

}  // namespace

BiconnectedComponents ComputeBiconnectedComponents(const Graph& g) {
  const NodeId n = g.num_nodes();
  BiconnectedComponents out;
  out.arc_component.assign(g.num_arcs(), kInvalidComp);
  out.rev_arc = ComputeReverseArcs(g);
  std::vector<uint8_t> is_cutpoint(n, 0);

  std::vector<uint32_t> disc(n, 0);  // 0 = unvisited; discovery times from 1
  std::vector<uint32_t> low(n, 0);
  std::vector<EdgeIndex> edge_stack;  // arcs (u->v) of the current subtree
  std::vector<Frame> stack;
  uint32_t timer = 0;

  auto pop_component = [&](EdgeIndex until_arc) {
    // Pop arcs up to and including `until_arc`; they form one component.
    uint32_t comp = out.num_components++;
    for (;;) {
      SAPHYRA_CHECK(!edge_stack.empty());
      EdgeIndex e = edge_stack.back();
      edge_stack.pop_back();
      out.arc_component[e] = comp;
      out.arc_component[out.rev_arc[e]] = comp;
      if (e == until_arc) break;
    }
  };

  for (NodeId root = 0; root < n; ++root) {
    if (disc[root] != 0 || g.degree(root) == 0) continue;
    disc[root] = low[root] = ++timer;
    stack.push_back(
        {root, g.offset(root), g.offset(root) + g.degree(root), kNoArc});
    uint32_t root_children = 0;
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.arc < f.arc_end) {
        EdgeIndex e = f.arc++;
        NodeId w = g.neighbors(f.v)[e - g.offset(f.v)];
        if (f.parent_arc != kNoArc && out.rev_arc[e] == f.parent_arc) {
          continue;  // the tree edge back to the parent
        }
        if (disc[w] == 0) {
          // Tree edge.
          disc[w] = low[w] = ++timer;
          edge_stack.push_back(e);
          if (f.v == root) ++root_children;
          stack.push_back({w, g.offset(w), g.offset(w) + g.degree(w), e});
        } else if (disc[w] < disc[f.v]) {
          // Back edge to an ancestor.
          edge_stack.push_back(e);
          low[f.v] = std::min(low[f.v], disc[w]);
        }
      } else {
        // f.v is fully explored; fold into the parent.
        Frame finished = f;
        stack.pop_back();
        if (finished.parent_arc == kNoArc) continue;  // root done
        NodeId parent = stack.back().v;
        low[parent] = std::min(low[parent], low[finished.v]);
        if (low[finished.v] >= disc[parent]) {
          // `parent` separates the subtree of finished.v: close a component.
          if (parent != root || root_children >= 2) {
            is_cutpoint[parent] = 1;
          }
          pop_component(finished.parent_arc);
        }
      }
    }
    SAPHYRA_CHECK(edge_stack.empty());
    // Root articulation rule: handled above via root_children (the root is a
    // cutpoint iff it has >= 2 DFS children).
    if (root_children >= 2) is_cutpoint[root] = 1;
  }

  // Canonical numbering + derived node fields, shared with the
  // incremental repair: components ordered by their smallest CSR arc
  // index rather than DFS pop order, making the labeling a pure function
  // of the graph. This is what keeps `.sgr` decomposition sections
  // bitwise identical across incremental repairs.
  const uint32_t dfs_components = out.num_components;
  out.is_cutpoint = ShareArray(std::move(is_cutpoint));
  FinalizeBicompFields(g, dfs_components, /*derive_cutpoints=*/false, &out);
  SAPHYRA_CHECK(out.num_components == dfs_components);
  return out;
}

void FinalizeBicompFields(const Graph& g, uint32_t label_space,
                          bool derive_cutpoints,
                          BiconnectedComponents* result) {
  BiconnectedComponents& out = *result;
  const NodeId n = g.num_nodes();
  {
    std::vector<uint32_t> renumber(label_space, kInvalidComp);
    uint32_t next = 0;
    for (EdgeIndex e = 0; e < g.num_arcs(); ++e) {
      uint32_t& id = renumber[out.arc_component[e]];
      if (id == kInvalidComp) id = next++;
    }
    for (uint32_t& c : out.arc_component) c = renumber[c];
    out.num_components = next;
  }

  // Collect member nodes per component from the arc labels, in two passes
  // (count, then fill) over the same per-node distinct-component walk:
  // `last[c]` is the last node appended to c. Scanning u ascending appends
  // to every list in ascending order, so each list comes out sorted.
  std::vector<uint64_t> begin(out.num_components + 1, 0);
  std::vector<NodeId> nodes;
  std::vector<NodeId> last(out.num_components, kInvalidNode);
  auto for_each_membership = [&](const auto& fn) {
    std::fill(last.begin(), last.end(), kInvalidNode);
    for (NodeId u = 0; u < n; ++u) {
      uint32_t prev = kInvalidComp;
      EdgeIndex base = g.offset(u);
      for (NodeId i = 0; i < g.degree(u); ++i) {
        uint32_t c = out.arc_component[base + i];
        SAPHYRA_CHECK(c != kInvalidComp);
        if (c == prev) continue;  // adjacency runs often share a component
        prev = c;
        if (last[c] == u) continue;
        last[c] = u;
        fn(c, u);
      }
    }
  };
  for_each_membership([&](uint32_t c, NodeId) { ++begin[c + 1]; });
  for (uint32_t c = 0; c < out.num_components; ++c) begin[c + 1] += begin[c];
  nodes.resize(begin[out.num_components]);
  {
    std::vector<uint64_t> fill(begin.begin(), begin.end() - 1);
    for_each_membership([&](uint32_t c, NodeId u) { nodes[fill[c]++] = u; });
  }
  // node_component + cutpoint multiplicities.
  std::vector<uint32_t> node_component(n, kInvalidComp);
  std::vector<uint32_t> counts(n, 0);
  for (uint32_t c = 0; c < out.num_components; ++c) {
    for (uint64_t i = begin[c]; i < begin[c + 1]; ++i) {
      const NodeId v = nodes[i];
      if (node_component[v] == kInvalidComp) node_component[v] = c;
      ++counts[v];
    }
  }
  if (derive_cutpoints) {
    std::vector<uint8_t> is_cutpoint(n, 0);
    for (NodeId v = 0; v < n; ++v) {
      if (counts[v] > 1) is_cutpoint[v] = 1;
    }
    out.is_cutpoint = ShareArray(std::move(is_cutpoint));
  } else {
    for (NodeId v = 0; v < n; ++v) {
      // Consistency: multiplicity > 1 iff flagged as cutpoint.
      SAPHYRA_CHECK((counts[v] > 1) == (out.is_cutpoint[v] != 0));
    }
  }
  out.component_nodes = ComponentMembers(ShareArray(std::move(begin)),
                                         ShareArray(std::move(nodes)));
  out.node_component = ShareArray(std::move(node_component));
  out.cutpoint_comp_count_ = ShareArray(std::move(counts));
}

}  // namespace saphyra
