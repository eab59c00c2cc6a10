#ifndef SAPHYRA_BICOMP_ISP_H_
#define SAPHYRA_BICOMP_ISP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bicomp/biconnected.h"
#include "bicomp/block_cut_tree.h"
#include "bicomp/component_view.h"
#include "bicomp/incremental.h"
#include "graph/connectivity.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace saphyra {

struct GraphCache;  // graph/binary_io.h

/// \brief Index construction knobs.
struct IspOptions {
  /// Threads for the biconnected decomposition: 0 sizes the parallel pass
  /// to the shared pool's width, 1 runs the serial Hopcroft–Tarjan oracle,
  /// N > 1 runs the parallel pass with N logical chunks. Every setting
  /// produces a bitwise-identical decomposition (the canonicalization
  /// contract in bicomp/biconnected.h), so this is purely a speed knob.
  uint32_t bicomp_threads = 0;
};

/// \brief Index over the intra-component shortest-path (ISP) sample space
/// (§IV-A of the paper).
///
/// Built once per graph, independent of the target subset. Bundles the
/// biconnected decomposition, block-cut tree/out-reach sets, and everything
/// derived from them in closed form:
///   * pair mass q_st = r_i(s)·r_i(t) / (n(n−1))  (ordered pairs),
///   * per-component mass W_i = Σ_{s∈C_i} r_i(s)(csize−r_i(s))
///     (= q-mass of C_i scaled by n(n−1)),
///   * γ = Σ_i W_i / (n(n−1))  (Eq. 19),
///   * break-point centrality bc_a(v)  (Eq. 21),
/// plus O(1) alias tables for the multistage sampler of Algorithm 2.
///
/// Convention note: the paper's Eq. 21 collapses the break-point sum to a
/// single term, which counts unordered pairs when a cutpoint belongs to
/// exactly two components. We use the general ordered-pair form
///   bc_a(v) = 1/(n(n−1)) · Σ_{C_i ∋ v} |T_i(v)|·(csize−1−|T_i(v)|),
/// which matches Eq. 3's ordered-pair definition of bc for any multiplicity;
/// the identity bc(v) = γ·E_{D_c}[g(v,p)] + bc_a(v) (Lemma 13) is verified
/// against exhaustive enumeration in the tests.
class IspIndex {
 public:
  /// \brief Build the full index. O(n + m). The decomposition runs on the
  /// shared pool by default; see IspOptions::bicomp_threads.
  explicit IspIndex(const Graph& g, const IspOptions& opts = IspOptions());

  /// \brief Build the index from a persisted decomposition (a `.sgr` cache
  /// loaded by graph/binary_io.h), skipping the biconnected DFS, the
  /// connectivity pass, the block-cut-tree DP and the view materialization.
  /// `g` must be the cache's own graph (typically
  /// `std::move(cache.graph)` into stable storage first) and
  /// `cache.has_decomposition` must hold; only the closed-form tables
  /// (γ, bc_a, alias tables) are recomputed — O(Σ|C_i|).
  IspIndex(const Graph& g, GraphCache&& cache);

  /// \brief The index of `g`, which is `parent`'s graph with the single
  /// edge mutation `mut` applied, given g's decomposition `bcc` as
  /// RepairBiconnectedComponents produced it and that repair's `route`,
  /// which must have kept the partition or merged blocks.
  ///   - kept (IncrementalBicompStats::kept_partition): the same member
  ///     lists under the same canonical ids. Connectivity, the block-cut
  ///     tree and every table derived from them (γ, W_i, bc_a, alias
  ///     tables) are pure functions of that partition, so they are shared
  ///     with the parent, not recomputed; only the mutated block's views
  ///     are patched (ComponentViews::WithEdge).
  ///   - merged (IncrementalBicompStats::merge): connectivity is shared,
  ///     and every block off the merged path keeps its views, out-reach,
  ///     W_i and alias tables under its new id — one splice per table.
  ///     Only the merged block's view, out-reach and tables are derived;
  ///     Σ W_i, γ and bc_a are re-summed in block order, so every bit
  ///     equals a fresh build's.
  /// Either index may be destroyed first.
  IspIndex(const Graph& g, const IspIndex& parent, BiconnectedComponents bcc,
           const EdgeMutation& mut, const IncrementalBicompStats& route);

  IspIndex(const IspIndex&) = delete;
  IspIndex& operator=(const IspIndex&) = delete;

  const Graph& graph() const { return *g_; }
  const BiconnectedComponents& bcc() const { return bcc_; }
  const BlockCutTree& tree() const { return tables_->tree; }
  const ComponentLabels& conn() const { return tables_->tree.conn(); }

  /// \brief Compact relabeled CSR of every biconnected component; the
  /// substrate of the Gen_bc sampler's restricted BFS.
  const ComponentViews& views() const { return views_; }

  /// \brief Number of biconnected components ℓ.
  uint32_t num_components() const { return bcc_.num_components; }

  /// \brief Normalization factor γ of the ISP distribution (Eq. 19).
  double gamma() const { return tables_->gamma; }

  /// \brief Break-point centrality bc_a(v) (Eq. 21; 0 for non-cutpoints).
  double bca(NodeId v) const { return tables_->bca[v]; }

  /// \brief Unnormalized component mass W_i (q-mass × n(n−1)).
  double comp_weight(uint32_t c) const { return tables_->comp_weight[c]; }

  /// \brief Σ_i W_i = γ·n(n−1).
  double total_weight() const { return tables_->total_weight; }

  /// \brief Out-reach r_i(v) for member v of component c.
  uint64_t OutReach(uint32_t c, NodeId v) const {
    return tables_->tree.OutReach(c, v);
  }

  /// \brief q_st for s,t members of component c (ordered-pair mass).
  double PairMass(uint32_t c, NodeId s, NodeId t) const {
    double n = static_cast<double>(g_->num_nodes());
    return static_cast<double>(OutReach(c, s)) *
           static_cast<double>(OutReach(c, t)) / (n * (n - 1.0));
  }

  /// \brief All biconnected components containing node v (1 element for
  /// non-cutpoints, empty for isolated nodes).
  std::vector<uint32_t> ComponentsOf(NodeId v) const;

  /// \brief Stage 2 of Algorithm 2: source s ∈ C_c with probability
  /// r_c(s)(csize−r_c(s)) / W_c.
  NodeId SampleSource(uint32_t c, Rng* rng) const;

  /// \brief Stage 3 of Algorithm 2: target t ∈ C_c \ {s} with probability
  /// r_c(t) / (csize − r_c(s)).
  NodeId SampleTarget(uint32_t c, NodeId s, Rng* rng) const;

 private:
  /// Everything that is a pure function of the block partition (and of
  /// n): built once, then shared by every later epoch whose update kept
  /// the partition, and spliced by one that merged blocks. Holds no
  /// pointer into any epoch — the tree keeps its node-level inputs itself
  /// — so no epoch's lifetime bounds another's.
  struct PartitionTables {
    BlockCutTree tree;
    double gamma = 0.0;
    double total_weight = 0.0;
    std::vector<double> comp_weight;
    // Per-component sum of the out-reach values (= csize): needed for the
    // no-rejection fallback in SampleTarget when one node holds most of
    // the r-mass.
    std::vector<double> target_mass;
    std::vector<double> bca;
    // Alias tables of Algorithm 2's stages 2 and 3, one slice per
    // component laid out like the flat member array (tree.reach()), with
    // indices into component_nodes[c].
    std::vector<double> source_prob;
    std::vector<uint32_t> source_alias;
    std::vector<double> target_prob;
    std::vector<uint32_t> target_alias;
  };

  /// The closed-form tables derived from a decomposition and its tree
  /// (γ, W_i, bc_a, alias tables).
  static std::shared_ptr<const PartitionTables> BuildTables(
      NodeId n, const BiconnectedComponents& bcc, BlockCutTree tree);

  /// `parent`'s tables (over the member layout `parent_bcc`) carried
  /// across `merge` onto the merged decomposition `bcc`.
  static std::shared_ptr<const PartitionTables> MergeTables(
      NodeId n, const PartitionTables& parent,
      const BiconnectedComponents& parent_bcc,
      const BiconnectedComponents& bcc, const BlockMerge& merge);

  /// W_c, the r-mass and the two alias slices of component c, from the
  /// tree's out-reach; `t`'s arrays are already sized.
  static void FillComponent(uint32_t c, const BiconnectedComponents& bcc,
                            PartitionTables* t);

  /// Σ W_i, γ and bc_a, summed in component order.
  static void SumTotals(NodeId n, const BiconnectedComponents& bcc,
                        PartitionTables* t);

  const Graph* g_;
  BiconnectedComponents bcc_;
  // Reached through this one pointer on the sampling hot path.
  std::shared_ptr<const PartitionTables> tables_;
  ComponentViews views_;
};

/// \brief Personalization of the ISP space to a target subset A (§IV-A).
///
/// Restricts the sample space to components touching A (the PISP space
/// X_c^(A), Eq. 22) and exposes η (Eq. 23) and stage 1 of Algorithm 2.
class PersonalizedSpace {
 public:
  /// \brief Personalize `isp` to `targets` (= A). Duplicate targets are
  /// rejected by SAPHYRA_CHECK; order defines hypothesis indices.
  PersonalizedSpace(const IspIndex& isp, std::vector<NodeId> targets);

  const IspIndex& isp() const { return *isp_; }
  const std::vector<NodeId>& targets() const { return targets_; }

  /// \brief η = PISP mass / ISP mass (Eq. 23). 0 if A touches no component.
  double eta() const { return eta_; }

  /// \brief Component ids in I(A), sorted.
  const std::vector<uint32_t>& component_ids() const { return comp_ids_; }

  /// \brief Hypothesis index of node v in `targets`, or -1.
  int32_t HypothesisIndex(NodeId v) const { return node_to_hyp_[v]; }

  /// \brief Stage 1 of Algorithm 2: component C_i, i ∈ I(A), with
  /// probability W_i / (η·ΣW).
  uint32_t SampleComponent(Rng* rng) const;

 private:
  const IspIndex* isp_;
  std::vector<NodeId> targets_;
  std::vector<uint32_t> comp_ids_;
  std::vector<int32_t> node_to_hyp_;
  double eta_ = 0.0;
  AliasTable comp_alias_;
};

}  // namespace saphyra

#endif  // SAPHYRA_BICOMP_ISP_H_
