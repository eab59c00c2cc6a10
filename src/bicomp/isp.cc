#include "bicomp/isp.h"

#include <algorithm>

#include "graph/binary_io.h"
#include "util/logging.h"

namespace saphyra {

IspIndex::IspIndex(const Graph& g, const IspOptions& opts)
    : g_(&g),
      bcc_(opts.bicomp_threads == 1
               ? ComputeBiconnectedComponents(g)
               : ComputeBiconnectedComponentsParallel(g,
                                                      opts.bicomp_threads)) {
  ComponentLabels conn = ConnectedComponents(g);
  BlockCutTree tree = BlockCutTree::Build(g, bcc_, conn);
  tables_ =
      BuildTables(g.num_nodes(), bcc_, std::move(conn), std::move(tree));
  views_ = ComponentViews(g, bcc_);
}

IspIndex::IspIndex(const Graph& g, GraphCache&& cache)
    : g_(&g), bcc_(std::move(cache.bcc)), views_(std::move(cache.views)) {
  SAPHYRA_CHECK_MSG(cache.has_decomposition,
                    "cache holds no decomposition; use IspIndex(g)");
  SAPHYRA_CHECK_MSG(bcc_.arc_component.size() == g.num_arcs() &&
                        cache.conn.component.size() == g.num_nodes(),
                    "cached decomposition does not match the graph");
  tables_ = BuildTables(g.num_nodes(), bcc_, std::move(cache.conn),
                        std::move(cache.tree));
}

IspIndex::IspIndex(const Graph& g, const IspIndex& parent,
                   BiconnectedComponents bcc, const EdgeMutation& mut)
    : g_(&g), bcc_(std::move(bcc)), tables_(parent.tables_) {
  const bool insert = mut.kind == EdgeMutationKind::kInsert;
  SAPHYRA_CHECK(g.num_nodes() == parent.graph().num_nodes() &&
                bcc_.num_components == parent.num_components() &&
                bcc_.arc_component.size() == g.num_arcs());
  // The mutated block: the label of the edge on the side that has it.
  const Graph& with_edge = insert ? g : parent.graph();
  const auto nbr = with_edge.neighbors(mut.u);
  const auto it = std::lower_bound(nbr.begin(), nbr.end(), mut.v);
  SAPHYRA_CHECK(it != nbr.end() && *it == mut.v);
  const uint32_t block =
      (insert ? bcc_ : parent.bcc_)
          .arc_component[with_edge.offset(mut.u) +
                         static_cast<EdgeIndex>(it - nbr.begin())];
  views_ = parent.views_.WithEdge(block, mut.u, mut.v, insert);
}

std::shared_ptr<const IspIndex::PartitionTables> IspIndex::BuildTables(
    NodeId num_nodes, const BiconnectedComponents& bcc, ComponentLabels conn,
    BlockCutTree tree) {
  auto t = std::make_shared<PartitionTables>();
  t->conn = std::move(conn);
  t->tree = std::move(tree);
  const double n = static_cast<double>(num_nodes);
  const double pair_norm = n * (n - 1.0);
  const uint32_t num_comps = bcc.num_components;

  t->comp_weight.assign(num_comps, 0.0);
  t->source_alias.resize(num_comps);
  t->target_alias.resize(num_comps);
  t->target_weights.resize(num_comps);
  t->target_mass.assign(num_comps, 0.0);
  std::vector<double> src_w;
  for (uint32_t c = 0; c < num_comps; ++c) {
    const double csize = static_cast<double>(t->tree.conn_size_of_comp(c));
    src_w.clear();
    auto& tgt_w = t->target_weights[c];
    double w = 0.0, mass = 0.0;
    for (NodeId v : bcc.component_nodes[c]) {
      double r = static_cast<double>(t->tree.OutReach(c, v));
      double sw = r * (csize - r);
      src_w.push_back(sw);
      tgt_w.push_back(r);
      w += sw;
      mass += r;
    }
    t->comp_weight[c] = w;
    t->target_mass[c] = mass;
    t->total_weight += w;
    // A component of a 2-node connected component (a single isolated edge)
    // has zero source mass; it can never be sampled, so skip its tables.
    if (w > 0.0) {
      t->source_alias[c] = AliasTable(src_w);
      t->target_alias[c] = AliasTable(tgt_w);
    }
  }
  t->gamma = num_nodes >= 2 ? t->total_weight / pair_norm : 0.0;

  // Break-point centrality bc_a (Eq. 21, ordered-pair form).
  t->bca.assign(num_nodes, 0.0);
  for (uint32_t c = 0; c < num_comps; ++c) {
    const double csize = static_cast<double>(t->tree.conn_size_of_comp(c));
    for (NodeId v : bcc.component_nodes[c]) {
      if (!bcc.is_cutpoint[v]) continue;
      double hang = static_cast<double>(t->tree.HangSize(c, v));
      t->bca[v] += hang * (csize - 1.0 - hang);
    }
  }
  if (num_nodes >= 2) {
    for (auto& b : t->bca) b /= pair_norm;
  }
  return t;
}

std::vector<uint32_t> IspIndex::ComponentsOf(NodeId v) const {
  std::vector<uint32_t> comps;
  EdgeIndex base = g_->offset(v);
  for (NodeId i = 0; i < g_->degree(v); ++i) {
    comps.push_back(bcc_.arc_component[base + i]);
  }
  std::sort(comps.begin(), comps.end());
  comps.erase(std::unique(comps.begin(), comps.end()), comps.end());
  return comps;
}

NodeId IspIndex::SampleSource(uint32_t c, Rng* rng) const {
  const PartitionTables& t = *tables_;
  SAPHYRA_CHECK(t.comp_weight[c] > 0.0);
  return bcc_.component_nodes[c][t.source_alias[c].Sample(rng)];
}

NodeId IspIndex::SampleTarget(uint32_t c, NodeId s, Rng* rng) const {
  const auto nodes = bcc_.component_nodes[c];
  // A 2-node component (bridge) has only one possible target. This is also
  // the case where rejection sampling degenerates: a bridge below a hub has
  // r(hub) = csize−1, so rejecting t == hub would loop ~csize times.
  if (nodes.size() == 2) {
    return nodes[0] == s ? nodes[1] : nodes[0];
  }
  const PartitionTables& t = *tables_;
  const auto& weights = t.target_weights[c];
  size_t s_index = static_cast<size_t>(
      std::lower_bound(nodes.begin(), nodes.end(), s) - nodes.begin());
  const double r_s = weights[s_index];
  const double mass = t.target_mass[c];
  if (r_s < 0.5 * mass) {
    // Rejection from the unconditional r-weighted alias table realizes
    // Pr[t | t != s] = r(t)/(mass − r(s)) exactly; with r(s) below half the
    // mass the expected number of retries is at most 2.
    for (;;) {
      NodeId target = nodes[t.target_alias[c].Sample(rng)];
      if (target != s) return target;
    }
  }
  // One node holds most of the r-mass: sample by inversion over the
  // remaining members, O(|C_c|). Rare (at most one such node per call).
  double x = rng->UniformDouble() * (mass - r_s);
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (i == s_index) continue;
    x -= weights[i];
    if (x <= 0.0) return nodes[i];
  }
  // Floating-point slack: return the last non-s member.
  return nodes.back() == s ? nodes[nodes.size() - 2] : nodes.back();
}

PersonalizedSpace::PersonalizedSpace(const IspIndex& isp,
                                     std::vector<NodeId> targets)
    : isp_(&isp), targets_(std::move(targets)) {
  const Graph& g = isp.graph();
  node_to_hyp_.assign(g.num_nodes(), -1);
  for (size_t i = 0; i < targets_.size(); ++i) {
    NodeId v = targets_[i];
    SAPHYRA_CHECK_MSG(v < g.num_nodes(), "target node out of range");
    SAPHYRA_CHECK_MSG(node_to_hyp_[v] == -1, "duplicate target node");
    node_to_hyp_[v] = static_cast<int32_t>(i);
  }
  // I(A): components containing at least one target.
  for (NodeId v : targets_) {
    for (uint32_t c : isp.ComponentsOf(v)) comp_ids_.push_back(c);
  }
  std::sort(comp_ids_.begin(), comp_ids_.end());
  comp_ids_.erase(std::unique(comp_ids_.begin(), comp_ids_.end()),
                  comp_ids_.end());

  double mass = 0.0;
  std::vector<double> weights;
  weights.reserve(comp_ids_.size());
  for (uint32_t c : comp_ids_) {
    weights.push_back(isp.comp_weight(c));
    mass += isp.comp_weight(c);
  }
  eta_ = isp.total_weight() > 0.0 ? mass / isp.total_weight() : 0.0;
  if (mass > 0.0) comp_alias_ = AliasTable(weights);
}

uint32_t PersonalizedSpace::SampleComponent(Rng* rng) const {
  SAPHYRA_CHECK(!comp_alias_.empty());
  return comp_ids_[comp_alias_.Sample(rng)];
}

}  // namespace saphyra
