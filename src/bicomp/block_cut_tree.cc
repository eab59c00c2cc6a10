#include "bicomp/block_cut_tree.h"

#include <algorithm>

#include "util/logging.h"

namespace saphyra {

BlockCutTree BlockCutTree::Derive(const BiconnectedComponents& bcc,
                                  std::shared_ptr<const ComponentLabels> conn,
                                  const BlockCutTree* parent,
                                  std::span<const uint32_t> carry) {
  BlockCutTree t;
  t.is_cutpoint_ = bcc.is_cutpoint;
  t.node_component_ = bcc.node_component;
  t.members_ = bcc.component_nodes;
  t.conn_ = std::move(conn);
  const NodeId n = static_cast<NodeId>(bcc.is_cutpoint.size());
  const uint32_t num_comps = bcc.num_components;
  const std::span<const uint64_t> begin = bcc.component_nodes.begin().span();
  SAPHYRA_CHECK(carry.size() == (parent == nullptr ? 0 : num_comps));
  auto carried = [&](uint32_t c) {
    return !carry.empty() && carry[c] != kInvalidComp;
  };
  t.conn_size_of_comp_.resize(num_comps);
  for (uint32_t c = 0; c < num_comps; ++c) {
    t.conn_size_of_comp_[c] =
        carried(c)
            ? parent->conn_size_of_comp_[carry[c]]
            : t.conn_->size[t.conn_->component[bcc.component_nodes[c][0]]];
  }
  t.reach_ = CarrySlices(
      parent != nullptr ? std::span<const NodeId>(parent->reach_)
                        : std::span<const NodeId>(),
      parent != nullptr ? parent->members_.begin().span()
                        : std::span<const uint64_t>(),
      begin, carry);
  const uint8_t* is_cut = bcc.is_cutpoint.data();

  // --- The dirty region's part of the block-cut tree ------------------
  // One sweep over the region's blocks sets their non-cutpoints' reach to
  // 1, numbers their cutpoints in order of first appearance with the
  // number of region blocks each is in, and lists each block's cutpoint
  // memberships (block_cuts / cuts); later passes walk only those. Vertex
  // weights count each node once: a block's non-cutpoint members in the
  // block, a cutpoint as its own vertex or folded into its block.
  struct CutMembership {
    uint32_t at;   // position in the block's member list
    uint32_t cut;  // the cutpoint's number
  };
  std::vector<uint32_t> region;
  std::vector<uint64_t> block_cuts{0};
  std::vector<CutMembership> cuts;
  std::vector<uint32_t> cut_id(n, kInvalidComp);
  std::vector<uint32_t> cut_count;
  std::vector<uint64_t> h;  // a cutpoint's weight h(x)
  std::vector<uint64_t> weight;
  for (uint32_t c = 0; c < num_comps; ++c) {
    if (carried(c)) continue;
    region.push_back(c);
    const auto members = bcc.component_nodes[c];
    NodeId* reach = t.reach_.data() + begin[c];
    uint64_t w = 0;
    for (size_t i = 0; i < members.size(); ++i) {
      const NodeId x = members[i];
      if (!is_cut[x]) {
        ++w;
        reach[i] = 1;
        continue;
      }
      uint32_t& k = cut_id[x];
      if (k == kInvalidComp) {
        k = static_cast<uint32_t>(h.size());
        h.push_back(parent == nullptr ? 1 : parent->conn_size_of_node(x));
        cut_count.push_back(0);
      }
      ++cut_count[k];
      cuts.push_back({static_cast<uint32_t>(i), k});
    }
    weight.push_back(w);
    block_cuts.push_back(cuts.size());
  }
  // h(x) is 1 plus the mass hanging off x through carried blocks. Each of
  // x's parent blocks hangs |conn| − r(x) nodes off x and together they
  // hang all but x, so h(x) is x's parent connected component size less
  // what the parent blocks that were not carried hung.
  if (parent != nullptr) {
    const auto num_parent = static_cast<uint32_t>(parent->members_.size());
    std::vector<uint8_t> kept(num_parent, 0);
    for (uint32_t c : carry) {
      if (c != kInvalidComp) kept[c] = 1;
    }
    for (uint32_t b = 0; b < num_parent; ++b) {
      if (kept[b]) continue;
      const auto members = parent->members_[b];
      const NodeId* reach = parent->reach_.data() + parent->members_.begin()[b];
      const uint64_t size = parent->conn_size_of_comp_[b];
      for (size_t i = 0; i < members.size(); ++i) {
        const uint32_t k = cut_id[members[i]];
        if (k != kInvalidComp) h[k] -= size - reach[i];
      }
    }
  }
  const auto num_region = static_cast<uint32_t>(region.size());
  const auto num_cuts = static_cast<uint32_t>(h.size());
  // Tree vertices: the region's blocks [0, R), then the cutpoints in two
  // or more of them, each listing its region blocks in one flat CSR
  // (cut_first / cut_blocks). A cutpoint in one region block is a leaf of
  // the region's tree: it folds into its block's weight, and its
  // out-reach there is h(x), like a non-cutpoint's 1.
  std::vector<uint32_t> vertex(num_cuts, kInvalidComp);
  std::vector<uint64_t> cut_first{0};
  for (uint32_t k = 0; k < num_cuts; ++k) {
    if (cut_count[k] < 2) continue;
    vertex[k] = static_cast<uint32_t>(num_region + cut_first.size() - 1);
    cut_first.push_back(cut_first.back() + cut_count[k]);
    weight.push_back(h[k]);
  }
  std::vector<uint32_t> cut_blocks(cut_first.back());
  {
    std::vector<uint64_t> fill(cut_first.begin(), cut_first.end() - 1);
    for (uint32_t r = 0; r < num_region; ++r) {
      for (uint64_t j = block_cuts[r]; j < block_cuts[r + 1]; ++j) {
        const uint32_t k = cuts[j].cut;
        if (vertex[k] == kInvalidComp) {
          weight[r] += h[k];
          t.reach_[begin[region[r]] + cuts[j].at] = static_cast<NodeId>(h[k]);
        } else {
          cut_blocks[fill[vertex[k] - num_region]++] = r;
        }
      }
    }
  }

  // --- Subtree weights via iterative DFS per tree component -----------
  const auto num_tree = static_cast<uint32_t>(weight.size());
  std::vector<uint64_t> subtree(num_tree, 0);
  std::vector<uint32_t> up(num_tree, kInvalidComp);
  std::vector<uint8_t> visited(num_tree, 0);
  std::vector<uint32_t> order;  // DFS preorder; reverse gives postorder
  order.reserve(num_tree);
  std::vector<uint64_t> tree_total(num_tree, 0);
  std::vector<uint32_t> stack;
  auto visit = [&](uint32_t from, uint32_t y) {
    if (visited[y]) return;
    visited[y] = 1;
    up[y] = from;
    order.push_back(y);
    stack.push_back(y);
  };
  for (uint32_t root = 0; root < num_tree; ++root) {
    if (visited[root]) continue;
    const size_t first = order.size();
    visit(kInvalidComp, root);
    while (!stack.empty()) {
      const uint32_t x = stack.back();
      stack.pop_back();
      if (x < num_region) {
        for (uint64_t j = block_cuts[x]; j < block_cuts[x + 1]; ++j) {
          if (vertex[cuts[j].cut] != kInvalidComp) {
            visit(x, vertex[cuts[j].cut]);
          }
        }
      } else {
        for (uint64_t i = cut_first[x - num_region];
             i < cut_first[x - num_region + 1]; ++i) {
          visit(x, cut_blocks[i]);
        }
      }
    }
    // Accumulate child subtrees bottom-up (reverse preorder is a valid
    // topological order for this).
    uint64_t total = 0;
    for (size_t i = order.size(); i-- > first;) {
      const uint32_t x = order[i];
      subtree[x] += weight[x];
      if (up[x] != kInvalidComp) {
        subtree[up[x]] += subtree[x];
      } else {
        total = subtree[x];
      }
    }
    for (size_t i = first; i < order.size(); ++i) tree_total[order[i]] = total;
  }

  // --- Out-reach of the cutpoints in two or more region blocks --------
  // S(v, C_i) = weight hanging on the C_i side of cutpoint v (excluding v);
  // r_i(v) = conn_size − S(v, C_i).
  for (uint32_t r = 0; r < num_region && num_tree > num_region; ++r) {
    const uint64_t conn_size = t.conn_size_of_comp_[region[r]];
    for (uint64_t j = block_cuts[r]; j < block_cuts[r + 1]; ++j) {
      const uint32_t tv = vertex[cuts[j].cut];
      if (tv == kInvalidComp) continue;
      uint64_t side;
      if (up[r] == tv) {
        side = subtree[r];  // the block is a child of v in the rooted tree
      } else {
        SAPHYRA_CHECK(up[tv] == r);
        side = tree_total[tv] - subtree[tv];  // the block is v's parent
      }
      SAPHYRA_CHECK(side < conn_size);
      t.reach_[begin[region[r]] + cuts[j].at] =
          static_cast<NodeId>(conn_size - side);
    }
  }
  t.FillHomeReach();
  return t;
}

void BlockCutTree::FillHomeReach() {
  const uint8_t* is_cut = is_cutpoint_.data();
  const uint32_t* home = node_component_.data();
  home_reach_.assign(is_cutpoint_.size(), 1);
  for (uint32_t c = 0; c < members_.size(); ++c) {
    const auto members = members_[c];
    const NodeId* reach = reach_.data() + members_.begin()[c];
    for (size_t i = 0; i < members.size(); ++i) {
      const NodeId v = members[i];
      if (is_cut[v] && home[v] == c) home_reach_[v] = reach[i];
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

}  // namespace saphyra
