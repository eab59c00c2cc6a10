#ifndef SAPHYRA_BICOMP_BLOCK_CUT_TREE_H_
#define SAPHYRA_BICOMP_BLOCK_CUT_TREE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "bicomp/biconnected.h"
#include "graph/connectivity.h"
#include "graph/graph.h"

namespace saphyra {

/// \brief Block-cut tree with out-reach sets (§IV-A, Fig. 2 of the paper).
///
/// The tree has one vertex per biconnected component and one per cutpoint,
/// with an edge for every (component, cutpoint-in-it) pair. From a single
/// tree DP we obtain, for every node v and component C_i containing it, the
/// *out-reach* r_i(v) = |R_i(v)|: the number of nodes reachable from v
/// without entering C_i (including v itself). Non-cutpoints have
/// r_i(v) = 1; for cutpoints the value is the mass hanging off v away from
/// C_i. Out-reach drives every closed-form quantity of SaPHyRa_bc:
/// q_st (pair mass), γ (Eq. 19), η (Eq. 23) and bc_a (Eq. 21).
///
/// Disconnected graphs are supported: sums that the paper writes with `n`
/// use the size of the relevant connected component instead (pairs with no
/// connecting path carry no probability mass in D_b, so this matches Eq. 5).
class BlockCutTree {
 public:
  /// \brief Build from a graph, its biconnected decomposition, and its
  /// connected-component labeling. O(n + Σ|C_i|).
  static BlockCutTree Build(const Graph& g, const BiconnectedComponents& bcc,
                            const ComponentLabels& conn);

  /// \brief Out-reach r_i(v). `v` must be a member of component `comp`.
  uint64_t OutReach(uint32_t comp, NodeId v) const {
    if (!is_cutpoint_[v]) return 1;
    auto it = cut_reach_.find(Key(comp, v));
    return it == cut_reach_.end() ? 1 : it->second;
  }

  /// \brief |T_i(v)| = (size of v's connected component) − r_i(v): the
  /// number of nodes separated from v's out-reach side by C_i.
  uint64_t HangSize(uint32_t comp, NodeId v) const {
    return conn_size_of_comp_[comp] - OutReach(comp, v);
  }

  /// \brief Size of the connected component that biconnected component
  /// `comp` lives in.
  uint64_t conn_size_of_comp(uint32_t comp) const {
    return conn_size_of_comp_[comp];
  }

  /// \brief Size of the connected component of node v.
  uint64_t conn_size_of_node(NodeId v) const {
    return conn_sizes_[conn_component_[v]];
  }

  /// \brief The cutpoint out-reach table, keyed by (comp << 32 | node)
  /// (serialization access; see MakeKey).
  const std::unordered_map<uint64_t, uint64_t>& cut_reach() const {
    return cut_reach_;
  }

  /// \brief Per-biconnected-component connected-component sizes
  /// (serialization access).
  const std::vector<uint64_t>& conn_size_of_comp_table() const {
    return conn_size_of_comp_;
  }

  /// \brief The cut_reach key of (comp, v), for (de)serialization.
  static uint64_t MakeKey(uint32_t comp, NodeId v) { return Key(comp, v); }

  /// \brief Reassemble a tree from persisted parts (deserialization). The
  /// tree DP is *not* re-run; `cut_reach` pairs come from a prior Build.
  static BlockCutTree FromParts(
      const BiconnectedComponents& bcc, const ComponentLabels& conn,
      std::vector<uint64_t> conn_size_of_comp,
      const std::vector<std::pair<uint64_t, uint64_t>>& cut_reach);

 private:
  static uint64_t Key(uint32_t comp, NodeId v) {
    return (static_cast<uint64_t>(comp) << 32) | v;
  }

  // The node-level inputs, shared or copied: a tree holds no pointer into
  // the structs it was built from and may outlive or move apart from them.
  ArrayRef<uint8_t> is_cutpoint_;
  std::vector<NodeId> conn_component_;
  std::vector<uint64_t> conn_sizes_;          // per connected component
  std::vector<uint64_t> conn_size_of_comp_;   // per biconnected component
  std::unordered_map<uint64_t, uint64_t> cut_reach_;
};

}  // namespace saphyra

#endif  // SAPHYRA_BICOMP_BLOCK_CUT_TREE_H_
