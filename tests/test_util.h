#ifndef SAPHYRA_TESTS_TEST_UTIL_H_
#define SAPHYRA_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "graph/bfs.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "util/logging.h"
#include "util/rng.h"

namespace saphyra {
namespace testing {

/// Build a graph from an explicit edge list (tests only; dies on error).
inline Graph MakeGraph(NodeId n, const std::vector<std::pair<NodeId, NodeId>>&
                                     edges) {
  GraphBuilder b;
  for (auto [u, v] : edges) b.AddEdge(u, v);
  Graph g;
  Status st = b.Build(n, &g);
  SAPHYRA_CHECK_MSG(st.ok(), st.ToString().c_str());
  return g;
}

/// The example graph of the paper's Fig. 2: 11 nodes a..k (0..10) with the
/// same block-cut structure as the figure -- five biconnected components
///   C1 = {b,a,c,d,e} (pentagon), C2 = {c,g,h} (triangle),
///   C3 = {d,f} (bridge), C4 = {i,j,k} (triangle), C5 = {d,i} (bridge),
/// and cutpoints c, d, i, giving the block-cut tree edges
/// {(c,C1),(c,C2),(d,C1),(d,C3),(d,C5),(i,C4),(i,C5)}.
/// Node ids: a=0 b=1 c=2 d=3 e=4 f=5 g=6 h=7 i=8 j=9 k=10.
inline Graph PaperFig2Graph() {
  return MakeGraph(11, {
                           {0, 1},   // a-b
                           {1, 2},   // b-c
                           {2, 3},   // c-d
                           {3, 4},   // d-e
                           {4, 0},   // e-a
                           {2, 6},   // c-g
                           {6, 7},   // g-h
                           {7, 2},   // h-c
                           {3, 5},   // d-f  (bridge)
                           {3, 8},   // d-i  (bridge)
                           {8, 9},   // i-j
                           {9, 10},  // j-k
                           {10, 8},  // k-i
                       });
}

/// All shortest s-t paths (as node sequences), optionally restricted to
/// arcs accepted by `arc_ok(u, arc_index)`. Exponential; small graphs only.
inline std::vector<std::vector<NodeId>> AllShortestPaths(
    const Graph& g, NodeId s, NodeId t,
    const std::function<bool(EdgeIndex)>* arc_ok = nullptr) {
  // Forward BFS with the restriction.
  std::vector<uint32_t> dist(g.num_nodes(), kUnreachable);
  std::vector<NodeId> queue{s};
  dist[s] = 0;
  for (size_t head = 0; head < queue.size(); ++head) {
    NodeId u = queue[head];
    EdgeIndex base = g.offset(u);
    auto nbr = g.neighbors(u);
    for (size_t i = 0; i < nbr.size(); ++i) {
      if (arc_ok != nullptr && !(*arc_ok)(base + i)) continue;
      NodeId v = nbr[i];
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  std::vector<std::vector<NodeId>> out;
  if (dist[t] == kUnreachable) return out;
  // Backward DFS from t along strictly-decreasing distances.
  std::vector<NodeId> path{t};
  std::function<void(NodeId)> rec = [&](NodeId w) {
    if (w == s) {
      out.emplace_back(path.rbegin(), path.rend());
      return;
    }
    EdgeIndex base = g.offset(w);
    auto nbr = g.neighbors(w);
    for (size_t i = 0; i < nbr.size(); ++i) {
      if (arc_ok != nullptr && !(*arc_ok)(base + i)) continue;
      NodeId u = nbr[i];
      if (dist[u] + 1 == dist[w]) {
        path.push_back(u);
        rec(u);
        path.pop_back();
      }
    }
  };
  rec(t);
  return out;
}

/// Brute-force betweenness by explicit enumeration of every shortest path
/// (Eq. 3, ordered pairs). Independent of the Brandes implementation.
inline std::vector<double> BruteForceBetweenness(const Graph& g) {
  const NodeId n = g.num_nodes();
  std::vector<double> bc(n, 0.0);
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = 0; t < n; ++t) {
      if (s == t) continue;
      auto paths = AllShortestPaths(g, s, t);
      if (paths.empty()) continue;
      double w = 1.0 / static_cast<double>(paths.size());
      for (const auto& p : paths) {
        for (size_t i = 1; i + 1 < p.size(); ++i) bc[p[i]] += w;
      }
    }
  }
  if (n >= 2) {
    double norm = static_cast<double>(n) * (n - 1.0);
    for (double& x : bc) x /= norm;
  }
  return bc;
}

/// Reference recursive biconnected-components labeling (simple textbook
/// Tarjan), returning a canonical partition of undirected edges:
/// same-component edges share a group id. Small graphs only.
class ReferenceBcc {
 public:
  explicit ReferenceBcc(const Graph& g) : g_(g) {
    disc_.assign(g.num_nodes(), 0);
    low_.assign(g.num_nodes(), 0);
    cut_.assign(g.num_nodes(), false);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (disc_[v] == 0 && g.degree(v) > 0) {
        root_ = v;
        root_children_ = 0;
        Dfs(v, kInvalidNode);
        if (root_children_ >= 2) cut_[v] = true;
      }
    }
  }

  /// edge (u,v) with u<v -> component group id
  const std::map<std::pair<NodeId, NodeId>, int>& edge_group() const {
    return group_;
  }
  bool is_cutpoint(NodeId v) const { return cut_[v]; }
  int num_groups() const { return next_group_; }

 private:
  void Dfs(NodeId u, NodeId parent) {
    disc_[u] = low_[u] = ++timer_;
    bool skipped_parent = false;
    for (NodeId v : g_.neighbors(u)) {
      if (v == parent && !skipped_parent) {
        skipped_parent = true;
        continue;
      }
      auto key = std::minmax(u, v);
      if (disc_[v] == 0) {
        stack_.push_back({key.first, key.second});
        if (u == root_) ++root_children_;
        Dfs(v, u);
        low_[u] = std::min(low_[u], low_[v]);
        if (low_[v] >= disc_[u]) {
          if (u != root_) cut_[u] = true;
          int id = next_group_++;
          for (;;) {
            auto e = stack_.back();
            stack_.pop_back();
            group_[e] = id;
            if (e == std::make_pair(key.first, key.second)) break;
          }
        }
      } else if (disc_[v] < disc_[u]) {
        stack_.push_back({key.first, key.second});
        low_[u] = std::min(low_[u], disc_[v]);
      }
    }
  }

  const Graph& g_;
  std::vector<uint32_t> disc_, low_;
  std::vector<bool> cut_;
  std::vector<std::pair<NodeId, NodeId>> stack_;
  std::map<std::pair<NodeId, NodeId>, int> group_;
  int next_group_ = 0;
  uint32_t timer_ = 0;
  NodeId root_ = 0;
  uint32_t root_children_ = 0;
};

/// Small random connected graph for property sweeps.
inline Graph RandomConnectedGraph(NodeId n, double extra_edge_prob,
                                  uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b;
  for (NodeId v = 1; v < n; ++v) {
    b.AddEdge(v, static_cast<NodeId>(rng.UniformInt(v)));  // random tree
  }
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.UniformDouble() < extra_edge_prob) b.AddEdge(u, v);
    }
  }
  Graph g;
  Status st = b.Build(n, &g);
  SAPHYRA_CHECK(st.ok());
  return g;
}

/// Barabási–Albert core (3 edges per node) plus `leaves` degree-1 nodes.
/// Each leaf attaches to a uniform endpoint of a uniform edge placed so
/// far, stepping off to the core end when that endpoint is a leaf — so a
/// core node's pull grows with the leaves it already holds. Hubs collect
/// leaves and become cutpoints of many bridge blocks, the social-graph
/// regime.
inline Graph BaCoreWithLeaves(NodeId core, NodeId leaves, uint64_t seed) {
  auto edges = BarabasiAlbert(core, 3, seed).UndirectedEdges();
  Rng rng(seed ^ 0x1eafULL);
  for (NodeId leaf = core; leaf < core + leaves; ++leaf) {
    auto [a, b] = edges[rng.UniformInt(edges.size())];
    if (rng.UniformInt(2) == 0) std::swap(a, b);
    edges.emplace_back(leaf, a < core ? a : b);
  }
  return MakeGraph(core + leaves, edges);
}

}  // namespace testing
}  // namespace saphyra

#endif  // SAPHYRA_TESTS_TEST_UTIL_H_
