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
  /// \brief The tree of `bcc` over the connectivity `conn`, carrying out-reach
  /// from `parent`, the tree one edge mutation earlier (null: none, and
  /// `carry` empty). Block c with `carry[c]` != kInvalidComp keeps parent
  /// block carry[c]'s out-reach slice — the caller vouches that its
  /// members, and the size of its connected component, stood. The other blocks form the dirty region,
  /// whose out-reach comes from one DP over its part of the tree, each
  /// region cutpoint x weighted h(x) = 1 + Σ_{carried C ∋ x} (|conn| −
  /// r_C(x)), the mass hanging off x through carried blocks. With no parent
  /// every block is in the region and h ≡ 1. O(n + Σ|C_i|): the DP walks
  /// the region's memberships and the parent's blocks that were not
  /// carried; every other slice is copied.
  static BlockCutTree Derive(const BiconnectedComponents& bcc,
                             std::shared_ptr<const ComponentLabels> conn,
                             const BlockCutTree* parent,
                             std::span<const uint32_t> carry);

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
  /// shared by every tree derived from this one across a mutation that
  /// kept it.
  const ComponentLabels& conn() const { return *conn_; }
  const std::shared_ptr<const ComponentLabels>& shared_conn() const {
    return conn_;
  }

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
