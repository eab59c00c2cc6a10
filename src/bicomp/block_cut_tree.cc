#include "bicomp/block_cut_tree.h"

#include <algorithm>

#include "util/logging.h"

namespace saphyra {

BlockCutTree BlockCutTree::Build(const Graph& g,
                                 const BiconnectedComponents& bcc,
                                 const ComponentLabels& conn) {
  BlockCutTree t;
  t.is_cutpoint_ = bcc.is_cutpoint;
  t.conn_component_ = conn.component;
  t.conn_sizes_.assign(conn.size.begin(), conn.size.end());

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
  for (uint32_t c = 0; c < num_comps; ++c) {
    const uint64_t conn_size = t.conn_size_of_comp_[c];
    for (NodeId v : bcc.component_nodes[c]) {
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
      t.cut_reach_.emplace(Key(c, v), conn_size - side);
    }
  }
  return t;
}

BlockCutTree BlockCutTree::FromParts(
    const BiconnectedComponents& bcc, const ComponentLabels& conn,
    std::vector<uint64_t> conn_size_of_comp,
    const std::vector<std::pair<uint64_t, uint64_t>>& cut_reach) {
  BlockCutTree t;
  t.is_cutpoint_ = bcc.is_cutpoint;
  t.conn_component_ = conn.component;
  t.conn_sizes_.assign(conn.size.begin(), conn.size.end());
  t.conn_size_of_comp_ = std::move(conn_size_of_comp);
  t.cut_reach_.reserve(cut_reach.size());
  for (const auto& [key, reach] : cut_reach) t.cut_reach_.emplace(key, reach);
  return t;
}

}  // namespace saphyra
