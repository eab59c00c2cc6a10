#include "bicomp/block_cut_tree.h"

#include <algorithm>

#include "bicomp/incremental.h"
#include "util/logging.h"

namespace saphyra {

BlockCutTree BlockCutTree::Build(const Graph& g,
                                 const BiconnectedComponents& bcc,
                                 const ComponentLabels& conn) {
  BlockCutTree t;
  t.is_cutpoint_ = bcc.is_cutpoint;
  t.node_component_ = bcc.node_component;
  t.members_ = bcc.component_nodes;
  t.conn_ = std::make_shared<const ComponentLabels>(conn);

  const uint32_t num_comps = bcc.num_components;
  t.conn_size_of_comp_.assign(num_comps, 0);
  for (uint32_t c = 0; c < num_comps; ++c) {
    if (!bcc.component_nodes[c].empty()) {
      NodeId rep = bcc.component_nodes[c][0];
      t.conn_size_of_comp_[c] = conn.size[conn.component[rep]];
    }
  }

  // --- Build the block-cut tree ---------------------------------------
  // Tree vertices: [0, num_comps) are components; cutpoints follow.
  std::vector<NodeId> cutpoints;
  std::vector<uint32_t> cut_tree_id(g.num_nodes(), kInvalidComp);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (bcc.is_cutpoint[v]) {
      cut_tree_id[v] = num_comps + static_cast<uint32_t>(cutpoints.size());
      cutpoints.push_back(v);
    }
  }
  const uint32_t num_tree = num_comps + static_cast<uint32_t>(cutpoints.size());
  std::vector<std::vector<uint32_t>> tree_adj(num_tree);
  for (uint32_t c = 0; c < num_comps; ++c) {
    for (NodeId v : bcc.component_nodes[c]) {
      if (bcc.is_cutpoint[v]) {
        tree_adj[c].push_back(cut_tree_id[v]);
        tree_adj[cut_tree_id[v]].push_back(c);
      }
    }
  }

  // Vertex weights: each graph node is counted exactly once in the tree --
  // non-cutpoints inside their unique component, cutpoints as their own
  // tree vertex.
  std::vector<uint64_t> weight(num_tree, 0);
  for (uint32_t c = 0; c < num_comps; ++c) {
    uint64_t w = 0;
    for (NodeId v : bcc.component_nodes[c]) {
      if (!bcc.is_cutpoint[v]) ++w;
    }
    weight[c] = w;
  }
  for (uint32_t i = 0; i < cutpoints.size(); ++i) {
    weight[num_comps + i] = 1;
  }

  // --- Subtree weights via iterative DFS per tree component -----------
  std::vector<uint64_t> subtree(num_tree, 0);
  std::vector<uint32_t> parent(num_tree, kInvalidComp);
  std::vector<uint8_t> visited(num_tree, 0);
  std::vector<uint32_t> order;  // DFS preorder; reverse gives postorder
  order.reserve(num_tree);
  std::vector<uint64_t> tree_total(num_tree, 0);  // per root, set later

  for (uint32_t root = 0; root < num_tree; ++root) {
    if (visited[root]) continue;
    // Skip isolated tree vertices that correspond to empty components.
    visited[root] = 1;
    size_t first = order.size();
    order.push_back(root);
    std::vector<uint32_t> stack{root};
    while (!stack.empty()) {
      uint32_t x = stack.back();
      stack.pop_back();
      for (uint32_t y : tree_adj[x]) {
        if (!visited[y]) {
          visited[y] = 1;
          parent[y] = x;
          order.push_back(y);
          stack.push_back(y);
        }
      }
    }
    // Accumulate child subtrees bottom-up (reverse preorder is a valid
    // topological order for this).
    uint64_t total = 0;
    for (size_t i = order.size(); i-- > first;) {
      uint32_t x = order[i];
      subtree[x] += weight[x];
      if (parent[x] != kInvalidComp) {
        subtree[parent[x]] += subtree[x];
      } else {
        total = subtree[x];
      }
    }
    for (size_t i = first; i < order.size(); ++i) tree_total[order[i]] = total;
  }

  // --- Out-reach for every (component, cutpoint) pair ------------------
  // S(v, C_i) = weight hanging on the C_i side of cutpoint v (excluding v);
  // r_i(v) = conn_size − S(v, C_i).
  t.reach_.assign(bcc.component_nodes.nodes().size(), 1);
  for (uint32_t c = 0; c < num_comps; ++c) {
    const uint64_t conn_size = t.conn_size_of_comp_[c];
    const auto members = bcc.component_nodes[c];
    const uint64_t base = bcc.component_nodes.begin()[c];
    for (size_t i = 0; i < members.size(); ++i) {
      const NodeId v = members[i];
      if (!bcc.is_cutpoint[v]) continue;
      uint32_t tv = cut_tree_id[v];
      uint64_t side;
      if (parent[c] == tv) {
        side = subtree[c];  // c is a child of v in the rooted tree
      } else {
        SAPHYRA_CHECK(parent[tv] == c);
        side = tree_total[tv] - subtree[tv];  // c is v's parent
      }
      SAPHYRA_CHECK(side < conn_size);
      t.reach_[base + i] = static_cast<NodeId>(conn_size - side);
    }
  }
  t.FillHomeReach();
  return t;
}

void BlockCutTree::FillHomeReach() {
  home_reach_.assign(is_cutpoint_.size(), 1);
  for (uint32_t c = 0; c < members_.size(); ++c) {
    const auto members = members_[c];
    const uint64_t base = members_.begin()[c];
    for (size_t i = 0; i < members.size(); ++i) {
      const NodeId v = members[i];
      if (is_cutpoint_[v] && node_component_[v] == c) {
        home_reach_[v] = reach_[base + i];
      }
    }
  }
}

std::vector<uint64_t> BlockCutTree::CutReachTable() const {
  std::vector<uint64_t> out;
  for (uint32_t c = 0; c < members_.size(); ++c) {
    const auto members = members_[c];
    const uint64_t base = members_.begin()[c];
    for (size_t i = 0; i < members.size(); ++i) {
      if (!is_cutpoint_[members[i]]) continue;
      out.push_back((static_cast<uint64_t>(c) << 32) | members[i]);
      out.push_back(reach_[base + i]);
    }
  }
  return out;
}

Status BlockCutTree::FromParts(const BiconnectedComponents& bcc,
                               const ComponentLabels& conn,
                               std::vector<uint64_t> conn_size_of_comp,
                               std::span<const uint64_t> cut_reach_table,
                               BlockCutTree* out) {
  BlockCutTree t;
  t.is_cutpoint_ = bcc.is_cutpoint;
  t.node_component_ = bcc.node_component;
  t.members_ = bcc.component_nodes;
  t.conn_ = std::make_shared<const ComponentLabels>(conn);
  t.conn_size_of_comp_ = std::move(conn_size_of_comp);
  t.reach_.assign(bcc.component_nodes.nodes().size(), 1);
  for (NodeId v : bcc.component_nodes.nodes()) {
    if (v >= t.is_cutpoint_.size() || v >= t.node_component_.size()) {
      return Status::IOError(".sgr component member is out of range");
    }
  }
  const size_t num_comps =
      std::min(t.members_.size(), t.conn_size_of_comp_.size());
  for (size_t i = 0; i + 1 < cut_reach_table.size(); i += 2) {
    const uint64_t c = cut_reach_table[i] >> 32;
    const NodeId v = static_cast<NodeId>(cut_reach_table[i]);
    const uint64_t r = cut_reach_table[i + 1];
    const auto members = c < num_comps ? t.members_[c]
                                       : std::span<const NodeId>();
    const auto it = std::lower_bound(members.begin(), members.end(), v);
    if (it == members.end() || *it != v || v >= t.is_cutpoint_.size() ||
        !t.is_cutpoint_[v]) {
      return Status::IOError(
          ".sgr cut_reach entry names no cutpoint membership");
    }
    if (r == 0 || r > t.conn_size_of_comp_[c]) {
      return Status::IOError(".sgr cut_reach entry is out of range");
    }
    t.reach_[t.members_.begin()[c] +
             static_cast<uint64_t>(it - members.begin())] =
        static_cast<NodeId>(r);
  }
  t.FillHomeReach();
  *out = std::move(t);
  return Status::OK();
}

BlockCutTree BlockCutTree::WithMerge(const BiconnectedComponents& bcc,
                                     const BlockMerge& merge) const {
  BlockCutTree t;
  t.is_cutpoint_ = bcc.is_cutpoint;
  t.node_component_ = bcc.node_component;
  t.members_ = bcc.component_nodes;
  t.conn_ = conn_;
  const auto num_old = static_cast<uint32_t>(conn_size_of_comp_.size());
  const uint32_t merged = merge.merged_id;
  const uint64_t conn_size = conn_size_of_comp_[merge.blocks[0]];
  t.conn_size_of_comp_ = merge.Splice<uint64_t>(
      conn_size_of_comp_, num_old, [](uint32_t c) { return uint64_t{c}; },
      1);
  t.conn_size_of_comp_[merged] = conn_size;

  const std::span<const uint64_t> old_begin = members_.begin().span();
  t.reach_ = merge.Splice<NodeId>(
      reach_, num_old, [&](uint32_t c) { return old_begin[c]; },
      bcc.component_nodes[merged].size());
  // Each path block's members, ascending, map into the merged members by
  // a galloping search from the previous match.
  const auto members = bcc.component_nodes[merged];
  NodeId* merged_reach = t.reach_.data() + t.members_.begin()[merged];
  for (uint32_t b : merge.blocks) {
    const auto block = members_[b];
    size_t j = 0;
    for (size_t i = 0; i < block.size(); ++i) {
      const NodeId x = block[i];
      size_t hi = j;
      for (size_t step = 1; hi < members.size() && members[hi] < x;
           step *= 2) {
        j = hi + 1;
        hi = j + step;
      }
      hi = std::min(hi + 1, members.size());
      j = static_cast<size_t>(
          std::lower_bound(members.begin() + j, members.begin() + hi, x) -
          members.begin());
      SAPHYRA_CHECK(j < members.size() && members[j] == x);
      const NodeId r = reach_[old_begin[b] + i];
      merged_reach[j] = merged_reach[j] == 0
                            ? r
                            : static_cast<NodeId>(merged_reach[j] + r -
                                                  conn_size);
    }
  }
  t.FillHomeReach();
  return t;
}

}  // namespace saphyra
