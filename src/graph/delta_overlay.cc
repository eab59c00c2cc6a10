#include "graph/delta_overlay.h"

#include <algorithm>
#include <string>

#include "util/logging.h"

namespace saphyra {

const std::vector<NodeId> DeltaOverlay::kNoInserts;

namespace {

std::string EdgeName(NodeId u, NodeId v) {
  return "{" + std::to_string(u) + ", " + std::to_string(v) + "}";
}

}  // namespace

DeltaOverlay::DeltaOverlay(const Graph* base) : base_(base) {
  SAPHYRA_CHECK(base_ != nullptr);
}

EdgeIndex DeltaOverlay::BaseArc(NodeId u, NodeId v) const {
  const auto nbr = base_->neighbors(u);
  auto it = std::lower_bound(nbr.begin(), nbr.end(), v);
  if (it == nbr.end() || *it != v) return kNoArc;
  return base_->offset(u) + static_cast<EdgeIndex>(it - nbr.begin());
}

bool DeltaOverlay::Inserted(NodeId u, NodeId v) const {
  if (inserts_.empty()) return false;
  const std::vector<NodeId>& ins = inserts_[u];
  return std::binary_search(ins.begin(), ins.end(), v);
}

bool DeltaOverlay::HasEdge(NodeId u, NodeId v) const {
  if (u >= num_nodes() || v >= num_nodes()) return false;
  const EdgeIndex arc = BaseArc(u, v);
  if (arc != kNoArc) return !Tombstoned(arc);
  return Inserted(u, v);
}

Status DeltaOverlay::Insert(NodeId u, NodeId v) {
  if (u >= num_nodes() || v >= num_nodes()) {
    return Status::InvalidArgument("edge endpoint out of range: " +
                                   EdgeName(u, v) + " with n=" +
                                   std::to_string(num_nodes()));
  }
  if (u == v) {
    return Status::InvalidArgument("self loop rejected: " + EdgeName(u, v));
  }
  const EdgeIndex arc_uv = BaseArc(u, v);
  if (arc_uv != kNoArc) {
    if (!Tombstoned(arc_uv)) {
      return Status::InvalidArgument("duplicate edge: " + EdgeName(u, v) +
                                     " already exists");
    }
    // Revive the tombstoned base edge in place.
    ClearTombstone(arc_uv);
    ClearTombstone(BaseArc(v, u));
    --tombstoned_edges_;
    return Status::OK();
  }
  if (Inserted(u, v)) {
    return Status::InvalidArgument("duplicate edge: " + EdgeName(u, v) +
                                   " already exists");
  }
  if (inserts_.empty()) inserts_.resize(num_nodes());
  for (auto [a, b] : {std::pair{u, v}, std::pair{v, u}}) {
    std::vector<NodeId>& ins = inserts_[a];
    ins.insert(std::lower_bound(ins.begin(), ins.end(), b), b);
  }
  ++inserted_edges_;
  return Status::OK();
}

Status DeltaOverlay::Remove(NodeId u, NodeId v) {
  if (u >= num_nodes() || v >= num_nodes()) {
    return Status::InvalidArgument("edge endpoint out of range: " +
                                   EdgeName(u, v) + " with n=" +
                                   std::to_string(num_nodes()));
  }
  if (Inserted(u, v)) {
    // Cancel the pending insert.
    for (auto [a, b] : {std::pair{u, v}, std::pair{v, u}}) {
      std::vector<NodeId>& ins = inserts_[a];
      ins.erase(std::lower_bound(ins.begin(), ins.end(), b));
    }
    --inserted_edges_;
    return Status::OK();
  }
  const EdgeIndex arc_uv = BaseArc(u, v);
  if (arc_uv == kNoArc || Tombstoned(arc_uv)) {
    return Status::InvalidArgument("no such edge: " + EdgeName(u, v));
  }
  SetTombstone(arc_uv);
  SetTombstone(BaseArc(v, u));
  ++tombstoned_edges_;
  return Status::OK();
}

Graph DeltaOverlay::Materialize() const {
  const NodeId n = num_nodes();
  std::vector<EdgeIndex> offsets(n + 1, 0);
  std::vector<NodeId> adj;
  adj.reserve(static_cast<size_t>(num_edges()) * 2);
  NodeId max_degree = 0;
  for (NodeId u = 0; u < n; ++u) {
    const size_t row_begin = adj.size();
    ForEachNeighbor(u, [&](NodeId v) { adj.push_back(v); });
    const NodeId d = static_cast<NodeId>(adj.size() - row_begin);
    max_degree = std::max(max_degree, d);
    offsets[u + 1] = adj.size();
  }
  Graph out;
  Status st = Graph::FromCsr(n, max_degree, std::move(offsets),
                             std::move(adj), &out);
  SAPHYRA_CHECK_MSG(st.ok(), st.ToString().c_str());
  return out;
}

void DeltaOverlay::Rebase(const Graph* new_base) {
  SAPHYRA_CHECK(new_base != nullptr);
  base_ = new_base;
  inserts_.clear();
  tombstones_.clear();
  inserted_edges_ = 0;
  tombstoned_edges_ = 0;
}

}  // namespace saphyra
