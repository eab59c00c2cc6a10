#ifndef SAPHYRA_BICOMP_BLOCK_CUT_TREE_H_
#define SAPHYRA_BICOMP_BLOCK_CUT_TREE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bicomp/biconnected.h"
#include "graph/connectivity.h"
#include "graph/graph.h"
#include "util/status.h"

namespace saphyra {

struct BlockMerge;  // bicomp/incremental.h

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
  /// O(1) for a non-cutpoint (r = 1) and for a cutpoint's first component
  /// (node_component); a binary search over comp's members otherwise.
  uint64_t OutReach(uint32_t comp, NodeId v) const {
    if (!is_cutpoint_[v]) return 1;
    if (node_component_[v] == comp) return home_reach_[v];
    const auto members = members_[comp];
    const auto it = std::lower_bound(members.begin(), members.end(), v);
    return reach_[members_.begin()[comp] +
                  static_cast<uint64_t>(it - members.begin())];
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
    return conn_->size[conn_->component[v]];
  }

  /// \brief The connected-component labeling the tree was built over,
  /// shared by every tree a merge derives from this one.
  const ComponentLabels& conn() const { return *conn_; }

  /// \brief Out-reach of every membership, laid out like the flat member
  /// array: reach()[component_nodes.begin()[c] + i] is r_c of the i-th
  /// member of c (1 for non-cutpoints).
  std::span<const NodeId> reach() const { return reach_; }

  /// \brief Per-biconnected-component connected-component sizes
  /// (serialization access).
  const std::vector<uint64_t>& conn_size_of_comp_table() const {
    return conn_size_of_comp_;
  }

  /// \brief The persisted out-reach table: (comp << 32 | node, r) for
  /// every cutpoint membership, flattened, ascending by key.
  std::vector<uint64_t> CutReachTable() const;

  /// \brief Reassemble a tree from persisted parts (deserialization). The
  /// tree DP is *not* re-run; `cut_reach_table` is a prior tree's
  /// CutReachTable(). A member id past the node count, a pair naming no
  /// cutpoint membership, or a reach outside [1, connected-component
  /// size], is an IOError.
  static Status FromParts(const BiconnectedComponents& bcc,
                          const ComponentLabels& conn,
                          std::vector<uint64_t> conn_size_of_comp,
                          std::span<const uint64_t> cut_reach_table,
                          BlockCutTree* out);

  /// \brief The tree after the insert that made `merge`
  /// (bicomp/incremental.h), given the merged decomposition `bcc`: the
  /// connectivity is shared, every kept block's out-reach slice carries
  /// over, and the merged block's is read off the path blocks' — a member
  /// of one path block keeps its reach there, and a path cutpoint x
  /// between blocks B and B' reaches what both leave it, r_B(x) + r_B'(x)
  /// − |conn|.
  BlockCutTree WithMerge(const BiconnectedComponents& bcc,
                         const BlockMerge& merge) const;

 private:
  /// Sets every cutpoint's home_reach_ from reach_.
  void FillHomeReach();

  // The node-level inputs, shared: a tree holds no pointer into the
  // structs it was built from and may outlive or move apart from them.
  ArrayRef<uint8_t> is_cutpoint_;
  ArrayRef<uint32_t> node_component_;
  ComponentMembers members_;
  std::shared_ptr<const ComponentLabels> conn_;
  std::vector<uint64_t> conn_size_of_comp_;   // per biconnected component
  std::vector<NodeId> reach_;                 // per membership
  // Per node: a cutpoint's reach in its node_component, the component
  // the sampler's hub lookups mostly hit (the core block comes first).
  std::vector<NodeId> home_reach_;
};

}  // namespace saphyra

#endif  // SAPHYRA_BICOMP_BLOCK_CUT_TREE_H_
