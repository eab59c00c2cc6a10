#include "bicomp/isp.h"

#include <algorithm>

#include "graph/binary_io.h"
#include "util/logging.h"

namespace saphyra {

IspIndex::IspIndex(const Graph& g)
    : g_(&g), bcc_(ComputeBiconnectedComponents(g)) {
  Derive(nullptr, nullptr);
}

IspIndex::IspIndex(const Graph& g, GraphCache&& cache)
    : g_(&g), bcc_(std::move(cache.bcc)), views_(std::move(cache.views)) {
  SAPHYRA_CHECK_MSG(cache.has_decomposition,
                    "cache holds no decomposition; use IspIndex(g)");
  SAPHYRA_CHECK_MSG(bcc_.arc_component.size() == g.num_arcs() &&
                        cache.tree.conn().component.size() == g.num_nodes(),
                    "cached decomposition does not match the graph");
  tables_ = DeriveTables(g.num_nodes(), bcc_, std::move(cache.tree), nullptr,
                         {});
}

IspIndex::IspIndex(const Graph& g, const IspIndex& parent,
                   BiconnectedComponents bcc, const BlockRemap& remap)
    : g_(&g), bcc_(std::move(bcc)) {
  SAPHYRA_CHECK(g.num_nodes() == parent.graph().num_nodes() &&
                bcc_.arc_component.size() == g.num_arcs() &&
                remap.from.size() == bcc_.num_components);
  Derive(&parent, &remap);
}

void IspIndex::Derive(const IspIndex* parent, const BlockRemap* remap) {
  views_ = ComponentViews(*g_, bcc_, parent != nullptr ? &parent->views_
                                                       : nullptr,
                          remap);
  // Out-reach and tables carry for a block whose member list stood and
  // whose connected component kept its size; connectivity is the parent's
  // unless the mutation joined or split a connected component.
  std::vector<uint32_t> carry;
  std::shared_ptr<const ComponentLabels> conn;
  if (parent != nullptr) {
    if (!remap->conn_changed) {
      // Every block carried under its own id: the partition stood, and
      // the parent's tables are this epoch's.
      const std::vector<uint32_t>& from = remap->from;
      bool same = from.size() == parent->num_components();
      for (uint32_t c = 0; same && c < from.size(); ++c) same = from[c] == c;
      if (same) {
        tables_ = parent->tables_;
        return;
      }
      conn = parent->tree().shared_conn();
    }
    carry = remap->from;
  }
  if (conn == nullptr) {
    conn = std::make_shared<const ComponentLabels>(ConnectedComponents(*g_));
    for (uint32_t c = 0; c < carry.size(); ++c) {
      const NodeId rep = bcc_.component_nodes[c][0];
      if (carry[c] != kInvalidComp &&
          conn->size[conn->component[rep]] !=
              parent->tree().conn_size_of_comp(carry[c])) {
        carry[c] = kInvalidComp;
      }
    }
  }
  tables_ = DeriveTables(
      g_->num_nodes(), bcc_,
      BlockCutTree::Derive(bcc_, std::move(conn),
                           parent != nullptr ? &parent->tree() : nullptr,
                           carry),
      parent, carry);
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
  const uint8_t* is_cut = bcc.is_cutpoint.data();
  for (uint32_t c = 0; c < bcc.num_components; ++c) {
    const uint64_t csize = t->tree.conn_size_of_comp(c);
    const uint64_t base = bcc.component_nodes.begin()[c];
    const auto members = bcc.component_nodes[c];
    for (size_t i = 0; i < members.size(); ++i) {
      const NodeId v = members[i];
      if (!is_cut[v]) continue;
      const double hang = static_cast<double>(csize - reach[base + i]);
      t->bca[v] += hang * (static_cast<double>(csize) - 1.0 - hang);
    }
  }
  if (num_nodes >= 2) {
    for (auto& b : t->bca) b /= pair_norm;
  }
}

std::shared_ptr<const IspIndex::PartitionTables> IspIndex::DeriveTables(
    NodeId num_nodes, const BiconnectedComponents& bcc, BlockCutTree tree,
    const IspIndex* parent, std::span<const uint32_t> carry) {
  auto t = std::make_shared<PartitionTables>();
  t->tree = std::move(tree);
  const uint32_t num_comps = bcc.num_components;
  // With no parent `carry` is empty and every slice is filled below.
  const PartitionTables* p =
      parent != nullptr ? parent->tables_.get() : nullptr;
  auto carried = [&](uint32_t c) {
    return !carry.empty() && carry[c] != kInvalidComp;
  };
  t->comp_weight.resize(num_comps);
  t->target_mass.resize(num_comps);
  for (uint32_t c = 0; c < num_comps; ++c) {
    t->comp_weight[c] = carried(c) ? p->comp_weight[carry[c]] : 0.0;
    t->target_mass[c] = carried(c) ? p->target_mass[carry[c]] : 0.0;
  }
  const std::span<const uint64_t> old_begin =
      parent != nullptr ? parent->bcc_.component_nodes.begin().span()
                        : std::span<const uint64_t>();
  const std::span<const uint64_t> begin = bcc.component_nodes.begin().span();
  auto slices = [&]<typename T>(std::vector<T> PartitionTables::*table) {
    return CarrySlices(
        p != nullptr ? std::span<const T>(p->*table) : std::span<const T>(),
        old_begin, begin, carry);
  };
  t->source_prob = slices(&PartitionTables::source_prob);
  t->source_alias = slices(&PartitionTables::source_alias);
  t->target_prob = slices(&PartitionTables::target_prob);
  t->target_alias = slices(&PartitionTables::target_alias);
  for (uint32_t c = 0; c < num_comps; ++c) {
    if (!carried(c)) FillComponent(c, bcc, t.get());
  }
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
  const size_t size = bcc_.component_nodes[c].size();
  const uint64_t base = bcc_.component_nodes.begin()[c];
  return static_cast<NodeId>(
      AliasTable::Sample(std::span(t.source_prob).subspan(base, size),
                         std::span(t.source_alias).subspan(base, size), rng));
}

NodeId IspIndex::SampleTarget(uint32_t c, NodeId s, Rng* rng) const {
  const size_t size = bcc_.component_nodes[c].size();
  // A 2-node component (bridge) has only one possible target. This is also
  // the case where rejection sampling degenerates: a bridge below a hub has
  // r(hub) = csize−1, so rejecting t == hub would loop ~csize times.
  if (size == 2) return 1 - s;
  const PartitionTables& t = *tables_;
  const uint64_t base = bcc_.component_nodes.begin()[c];
  const std::span<const NodeId> reach = t.tree.reach().subspan(base, size);
  const double r_s = static_cast<double>(reach[s]);
  const double mass = t.target_mass[c];
  if (r_s < 0.5 * mass) {
    // Rejection from the unconditional r-weighted alias table realizes
    // Pr[t | t != s] = r(t)/(mass − r(s)) exactly; with r(s) below half the
    // mass the expected number of retries is at most 2.
    const auto prob = std::span(t.target_prob).subspan(base, size);
    const auto alias = std::span(t.target_alias).subspan(base, size);
    for (;;) {
      const NodeId target =
          static_cast<NodeId>(AliasTable::Sample(prob, alias, rng));
      if (target != s) return target;
    }
  }
  // One node holds most of the r-mass: sample by inversion over the
  // remaining members, O(|C_c|). Rare (at most one such node per call).
  double x = rng->UniformDouble() * (mass - r_s);
  for (NodeId i = 0; i < size; ++i) {
    if (i == s) continue;
    x -= static_cast<double>(reach[i]);
    if (x <= 0.0) return i;
  }
  // Floating-point slack: return the last non-s member.
  const NodeId last = static_cast<NodeId>(size - 1);
  return last == s ? last - 1 : last;
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
