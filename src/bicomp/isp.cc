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
  tables_ = BuildTables(g.num_nodes(), bcc_,
                        BlockCutTree::Build(g, bcc_, ConnectedComponents(g)));
  views_ = ComponentViews(g, bcc_);
}

IspIndex::IspIndex(const Graph& g, GraphCache&& cache)
    : g_(&g), bcc_(std::move(cache.bcc)), views_(std::move(cache.views)) {
  SAPHYRA_CHECK_MSG(cache.has_decomposition,
                    "cache holds no decomposition; use IspIndex(g)");
  SAPHYRA_CHECK_MSG(bcc_.arc_component.size() == g.num_arcs() &&
                        cache.tree.conn().component.size() == g.num_nodes(),
                    "cached decomposition does not match the graph");
  tables_ = BuildTables(g.num_nodes(), bcc_, std::move(cache.tree));
}

IspIndex::IspIndex(const Graph& g, const IspIndex& parent,
                   BiconnectedComponents bcc, const EdgeMutation& mut,
                   const IncrementalBicompStats& route)
    : g_(&g), bcc_(std::move(bcc)) {
  SAPHYRA_CHECK(g.num_nodes() == parent.graph().num_nodes() &&
                bcc_.arc_component.size() == g.num_arcs());
  if (route.merged()) {
    views_ = parent.views_.WithMerge(g, bcc_, route.merge);
    tables_ = MergeTables(g.num_nodes(), *parent.tables_, parent.bcc_, bcc_,
                          route.merge);
    return;
  }
  SAPHYRA_CHECK(route.kept_partition &&
                bcc_.num_components == parent.num_components());
  tables_ = parent.tables_;
  // The mutated block: the label of the edge on the side that has it.
  const bool insert = mut.kind == EdgeMutationKind::kInsert;
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

void IspIndex::FillComponent(uint32_t c, const BiconnectedComponents& bcc,
                             PartitionTables* t) {
  const double csize = static_cast<double>(t->tree.conn_size_of_comp(c));
  const uint64_t base = bcc.component_nodes.begin()[c];
  const size_t size = bcc.component_nodes[c].size();
  const std::span<const NodeId> reach = t->tree.reach().subspan(base, size);
  std::vector<double> src_w(size);
  std::vector<double> tgt_w(size);
  double w = 0.0, mass = 0.0;
  for (size_t i = 0; i < size; ++i) {
    const double r = static_cast<double>(reach[i]);
    src_w[i] = r * (csize - r);
    tgt_w[i] = r;
    w += src_w[i];
    mass += r;
  }
  t->comp_weight[c] = w;
  t->target_mass[c] = mass;
  // A component of a 2-node connected component (a single isolated edge)
  // has zero source mass; it can never be sampled, so skip its tables.
  if (w > 0.0) {
    AliasTable::Build(src_w, std::span(t->source_prob).subspan(base, size),
                      std::span(t->source_alias).subspan(base, size));
    AliasTable::Build(tgt_w, std::span(t->target_prob).subspan(base, size),
                      std::span(t->target_alias).subspan(base, size));
  }
}

void IspIndex::SumTotals(NodeId num_nodes, const BiconnectedComponents& bcc,
                         PartitionTables* t) {
  const double n = static_cast<double>(num_nodes);
  const double pair_norm = n * (n - 1.0);
  t->total_weight = 0.0;
  for (double w : t->comp_weight) t->total_weight += w;
  t->gamma = num_nodes >= 2 ? t->total_weight / pair_norm : 0.0;

  // Break-point centrality bc_a (Eq. 21, ordered-pair form).
  t->bca.assign(num_nodes, 0.0);
  const std::span<const NodeId> reach = t->tree.reach();
  for (uint32_t c = 0; c < bcc.num_components; ++c) {
    const uint64_t csize = t->tree.conn_size_of_comp(c);
    const uint64_t base = bcc.component_nodes.begin()[c];
    const auto members = bcc.component_nodes[c];
    for (size_t i = 0; i < members.size(); ++i) {
      const NodeId v = members[i];
      if (!bcc.is_cutpoint[v]) continue;
      const double hang = static_cast<double>(csize - reach[base + i]);
      t->bca[v] += hang * (static_cast<double>(csize) - 1.0 - hang);
    }
  }
  if (num_nodes >= 2) {
    for (auto& b : t->bca) b /= pair_norm;
  }
}

std::shared_ptr<const IspIndex::PartitionTables> IspIndex::BuildTables(
    NodeId num_nodes, const BiconnectedComponents& bcc, BlockCutTree tree) {
  auto t = std::make_shared<PartitionTables>();
  t->tree = std::move(tree);
  const uint32_t num_comps = bcc.num_components;
  const size_t memberships = bcc.component_nodes.nodes().size();
  t->comp_weight.assign(num_comps, 0.0);
  t->target_mass.assign(num_comps, 0.0);
  t->source_prob.assign(memberships, 0.0);
  t->source_alias.assign(memberships, 0);
  t->target_prob.assign(memberships, 0.0);
  t->target_alias.assign(memberships, 0);
  for (uint32_t c = 0; c < num_comps; ++c) FillComponent(c, bcc, t.get());
  SumTotals(num_nodes, bcc, t.get());
  return t;
}

std::shared_ptr<const IspIndex::PartitionTables> IspIndex::MergeTables(
    NodeId num_nodes, const PartitionTables& parent,
    const BiconnectedComponents& parent_bcc,
    const BiconnectedComponents& bcc, const BlockMerge& merge) {
  auto t = std::make_shared<PartitionTables>();
  t->tree = parent.tree.WithMerge(bcc, merge);
  const uint32_t num_old = parent_bcc.num_components;
  auto per_component = [&](const std::vector<double>& old) {
    return merge.Splice<double>(
        old, num_old, [](uint32_t c) { return uint64_t{c}; }, 1);
  };
  t->comp_weight = per_component(parent.comp_weight);
  t->target_mass = per_component(parent.target_mass);
  const std::span<const uint64_t> old_begin =
      parent_bcc.component_nodes.begin().span();
  const size_t merged_size = bcc.component_nodes[merge.merged_id].size();
  auto per_member = [&]<typename T>(const std::vector<T>& old) {
    return merge.Splice<T>(
        old, num_old, [&](uint32_t c) { return old_begin[c]; }, merged_size);
  };
  t->source_prob = per_member(parent.source_prob);
  t->source_alias = per_member(parent.source_alias);
  t->target_prob = per_member(parent.target_prob);
  t->target_alias = per_member(parent.target_alias);
  FillComponent(merge.merged_id, bcc, t.get());
  SumTotals(num_nodes, bcc, t.get());
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
  const auto nodes = bcc_.component_nodes[c];
  const uint64_t base = bcc_.component_nodes.begin()[c];
  return nodes[AliasTable::Sample(
      std::span(t.source_prob).subspan(base, nodes.size()),
      std::span(t.source_alias).subspan(base, nodes.size()), rng)];
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
  const uint64_t base = bcc_.component_nodes.begin()[c];
  const std::span<const NodeId> reach =
      t.tree.reach().subspan(base, nodes.size());
  size_t s_index = static_cast<size_t>(
      std::lower_bound(nodes.begin(), nodes.end(), s) - nodes.begin());
  const double r_s = static_cast<double>(reach[s_index]);
  const double mass = t.target_mass[c];
  if (r_s < 0.5 * mass) {
    // Rejection from the unconditional r-weighted alias table realizes
    // Pr[t | t != s] = r(t)/(mass − r(s)) exactly; with r(s) below half the
    // mass the expected number of retries is at most 2.
    const auto prob = std::span(t.target_prob).subspan(base, nodes.size());
    const auto alias = std::span(t.target_alias).subspan(base, nodes.size());
    for (;;) {
      NodeId target = nodes[AliasTable::Sample(prob, alias, rng)];
      if (target != s) return target;
    }
  }
  // One node holds most of the r-mass: sample by inversion over the
  // remaining members, O(|C_c|). Rare (at most one such node per call).
  double x = rng->UniformDouble() * (mass - r_s);
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (i == s_index) continue;
    x -= static_cast<double>(reach[i]);
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
