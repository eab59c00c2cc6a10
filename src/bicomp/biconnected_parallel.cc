// Parallel biconnected-components decomposition: the ROADMAP
// "parallel preprocessing" item. A Tarjan–Vishkin style vertex labeling
// over a BFS spanning forest, run as level-synchronous sweeps on
// SharedThreadPool — no recursion, no depth-proportional stack, O(n + m)
// work. The pipeline:
//
//   1. connected components (lock-free union-find, min-id representatives)
//   2. BFS spanning forest rooted at every component's minimum-id node;
//      parent[w] = the smallest frontier neighbor (atomic fetch-min)
//   3. preorder ranges first/last per node via level-synchronous
//      subtree-size and prefix sweeps (the Euler-tour ranges of the
//      fast-BCC shape, without list ranking)
//   4. low/high = min/max preorder reachable from the subtree through any
//      incident edge, by a bottom-up level sweep
//   5. skeleton union-find over the Tarjan–Vishkin rules:
//        (i)  Union(u, w) for every non-tree edge {u, w} whose endpoints
//             are unrelated in the forest (a cross edge), and
//        (ii) Union(v, parent[v]) for every non-root v whose subtree
//             escapes the parent's preorder range
//             (low[v] < first[p] or high[v] > last[p]).
//      Two tree edges then share a biconnected component iff their child
//      endpoints share a skeleton set; a back edge joins the component of
//      its descendant endpoint, a cross edge that of either endpoint.
//   6. arc labels from the skeleton representatives, renumbered by each
//      component's smallest CSR arc index (the canonicalization contract
//      in biconnected.h), and the same derived tables the serial pass
//      builds.
//
// Determinism across thread counts falls out of three properties: the
// skeleton partition is a graph invariant (independent of the spanning
// forest), every cross-chunk write is an atomic min/add whose result is
// interleaving-independent, and per-chunk scratch output is concatenated
// in chunk order. tests/bicomp_differential_test.cc pins bitwise equality
// against the serial oracle across {1, 2, 8} threads.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "bicomp/biconnected.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace saphyra {
namespace {

constexpr EdgeIndex kNoArc = static_cast<EdgeIndex>(-1);

inline NodeId LoadNode(NodeId* p) {
  return std::atomic_ref<NodeId>(*p).load(std::memory_order_relaxed);
}

inline void StoreNode(NodeId* p, NodeId v) {
  std::atomic_ref<NodeId>(*p).store(v, std::memory_order_relaxed);
}

/// Lower `*p` to min(*p, v); returns the value observed before the update.
/// Discovery idiom: the caller that sees the initial sentinel is the unique
/// first writer.
inline NodeId FetchMinNode(NodeId* p, NodeId v) {
  std::atomic_ref<NodeId> ref(*p);
  NodeId cur = ref.load(std::memory_order_relaxed);
  while (v < cur) {
    if (ref.compare_exchange_weak(cur, v, std::memory_order_relaxed)) break;
  }
  return cur;
}

inline void FetchMinArc(EdgeIndex* p, EdgeIndex v) {
  std::atomic_ref<EdgeIndex> ref(*p);
  EdgeIndex cur = ref.load(std::memory_order_relaxed);
  while (v < cur) {
    if (ref.compare_exchange_weak(cur, v, std::memory_order_relaxed)) break;
  }
}

inline uint32_t FetchAdd32(uint32_t* p, uint32_t v) {
  return std::atomic_ref<uint32_t>(*p).fetch_add(v, std::memory_order_relaxed);
}

/// \brief Static chunking over SharedThreadPool: exactly `threads`
/// contiguous chunks per call, or one inline chunk when the range is too
/// small to pay for a queue round-trip (essential on million-level BFS
/// frontiers of size 1). Chunk boundaries depend only on (range, threads),
/// never on the pool's worker count, so per-chunk scratch concatenated in
/// chunk order is reproducible for a fixed logical thread count.
class Chunker {
 public:
  explicit Chunker(uint32_t threads)
      : pool_(&SharedThreadPool()), threads_(threads < 1 ? 1 : threads) {}

  uint32_t threads() const { return threads_; }

  /// Run fn(chunk, lo, hi) over [begin, end) split into threads() chunks.
  /// Blocks until every chunk is done (a full barrier).
  template <class Fn>
  void Chunks(size_t begin, size_t end, const Fn& fn) const {
    if (begin >= end) return;
    const size_t len = end - begin;
    if (threads_ == 1 || len < kInlineBelow) {
      fn(0, begin, end);
      return;
    }
    ThreadPool::TaskGroup group;
    const size_t base = len / threads_;
    const size_t rem = len % threads_;
    size_t lo = begin;
    for (uint32_t t = 0; t < threads_; ++t) {
      const size_t hi = lo + base + (t < rem ? 1 : 0);
      pool_->Submit(&group, [&fn, t, lo, hi] { fn(t, lo, hi); });
      lo = hi;
    }
    pool_->WaitGroup(&group);
  }

  /// Run fn(i) for every i in [begin, end), chunk-parallel.
  template <class Fn>
  void For(size_t begin, size_t end, const Fn& fn) const {
    Chunks(begin, end, [&fn](uint32_t, size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) fn(i);
    });
  }

  /// Nodes v in [0, n) with pred(v), ascending (chunks are contiguous and
  /// ascending, so chunk-order concatenation preserves the order).
  template <class Pred>
  std::vector<NodeId> CollectNodes(NodeId n, const Pred& pred) const {
    std::vector<std::vector<NodeId>> per(threads_);
    Chunks(0, n, [&](uint32_t t, size_t lo, size_t hi) {
      std::vector<NodeId>& buf = per[t];
      for (size_t v = lo; v < hi; ++v) {
        if (pred(static_cast<NodeId>(v))) buf.push_back(static_cast<NodeId>(v));
      }
    });
    std::vector<NodeId> out;
    for (std::vector<NodeId>& buf : per) {
      out.insert(out.end(), buf.begin(), buf.end());
    }
    return out;
  }

 private:
  static constexpr size_t kInlineBelow = 2048;

  ThreadPool* pool_;
  uint32_t threads_;
};

/// Concurrent union-find with path halving. Roots always link larger id
/// under smaller, so a set's representative is its minimum member — a
/// deterministic function of the unions performed, in any order.
NodeId UfFind(std::vector<NodeId>* uf, NodeId x) {
  for (;;) {
    NodeId p = LoadNode(&(*uf)[x]);
    if (p == x) return x;
    NodeId gp = LoadNode(&(*uf)[p]);
    if (gp == p) return p;
    // Path halving: parents only ever decrease, so a racy store can only
    // re-publish a valid (possibly stale) shortcut.
    StoreNode(&(*uf)[x], gp);
    x = gp;
  }
}

void UfUnion(std::vector<NodeId>* uf, NodeId a, NodeId b) {
  for (;;) {
    a = UfFind(uf, a);
    b = UfFind(uf, b);
    if (a == b) return;
    if (a < b) std::swap(a, b);  // link the larger root under the smaller
    NodeId expected = a;
    if (std::atomic_ref<NodeId>((*uf)[a])
            .compare_exchange_strong(expected, b,
                                     std::memory_order_relaxed)) {
      return;
    }
  }
}

/// Reverse-arc map with the per-arc binary search parallelized over source
/// nodes (the serial pass uses a cursor sweep; both produce the unique
/// inverse permutation, so the results are identical).
std::vector<EdgeIndex> ReverseArcsParallel(const Graph& g, const Chunker& ex) {
  std::vector<EdgeIndex> rev(g.num_arcs());
  ex.For(0, g.num_nodes(), [&](size_t ui) {
    NodeId u = static_cast<NodeId>(ui);
    EdgeIndex base = g.offset(u);
    auto nbr = g.neighbors(u);
    for (size_t i = 0; i < nbr.size(); ++i) {
      NodeId v = nbr[i];
      auto vn = g.neighbors(v);
      auto it = std::lower_bound(vn.begin(), vn.end(), u);
      SAPHYRA_CHECK(it != vn.end() && *it == u);
      rev[base + i] = g.offset(v) + static_cast<EdgeIndex>(it - vn.begin());
    }
  });
  return rev;
}

}  // namespace

BiconnectedComponents ComputeBiconnectedComponentsParallel(
    const Graph& g, uint32_t num_threads) {
  if (num_threads == 0) {
    num_threads = static_cast<uint32_t>(SharedThreadPool().num_threads());
  }
  if (num_threads <= 1) {
    // The serial Hopcroft–Tarjan pass is the oracle; one thread means
    // exactly that code path.
    return ComputeBiconnectedComponents(g);
  }
  const NodeId n = g.num_nodes();
  const EdgeIndex arcs = g.num_arcs();
  const Chunker ex(num_threads);

  BiconnectedComponents out;
  out.arc_component.assign(arcs, kInvalidComp);
  out.rev_arc = ReverseArcsParallel(g, ex);
  std::vector<uint8_t> is_cutpoint(n, 0);
  std::vector<uint32_t> node_component(n, kInvalidComp);
  std::vector<uint32_t> counts(n, 0);
  if (arcs == 0) {
    out.is_cutpoint = ShareArray(std::move(is_cutpoint));
    out.component_nodes = ComponentMembers(ShareArray<uint64_t>({0}),
                                           ShareArray<NodeId>({}));
    out.node_component = ShareArray(std::move(node_component));
    out.cutpoint_comp_count_ = ShareArray(std::move(counts));
    return out;
  }

  // --- 1. connected components over all edges ------------------------------
  std::vector<NodeId> cc(n);
  ex.For(0, n, [&](size_t v) { cc[v] = static_cast<NodeId>(v); });
  ex.For(0, n, [&](size_t ui) {
    NodeId u = static_cast<NodeId>(ui);
    for (NodeId w : g.neighbors(u)) {
      if (w > u) UfUnion(&cc, u, w);
    }
  });

  // --- 2. BFS spanning forest ----------------------------------------------
  // Roots are the minimum-id node of every component with at least one
  // edge (= the union-find representatives, by the min-root invariant).
  std::vector<NodeId> roots = ex.CollectNodes(n, [&](NodeId v) {
    return g.degree(v) > 0 && UfFind(&cc, v) == v;
  });

  std::vector<NodeId> parent(n, kInvalidNode);
  std::vector<uint8_t> visited(n, 0);
  std::vector<NodeId> order;  // BFS visit order, level by level
  order.reserve(n);
  std::vector<std::pair<size_t, size_t>> levels;  // [begin, end) into order

  std::vector<NodeId> frontier = roots;
  ex.For(0, frontier.size(), [&](size_t i) { visited[frontier[i]] = 1; });
  std::vector<std::vector<NodeId>> next_per(ex.threads());
  while (!frontier.empty()) {
    const size_t level_begin = order.size();
    order.insert(order.end(), frontier.begin(), frontier.end());
    levels.emplace_back(level_begin, order.size());
    // Discover: parent[w] accumulates the minimum frontier neighbor; the
    // writer that first lowers it from the sentinel owns the enqueue.
    // visited[] is read-only during this sweep (written only in the commit
    // step below, after the barrier).
    ex.Chunks(0, frontier.size(), [&](uint32_t t, size_t lo, size_t hi) {
      std::vector<NodeId>& buf = next_per[t];
      for (size_t i = lo; i < hi; ++i) {
        NodeId u = frontier[i];
        for (NodeId w : g.neighbors(u)) {
          if (visited[w]) continue;
          if (FetchMinNode(&parent[w], u) == kInvalidNode) buf.push_back(w);
        }
      }
    });
    frontier.clear();
    for (std::vector<NodeId>& buf : next_per) {
      frontier.insert(frontier.end(), buf.begin(), buf.end());
      buf.clear();
    }
    ex.For(0, frontier.size(), [&](size_t i) { visited[frontier[i]] = 1; });
  }
  const size_t visited_count = order.size();

  // --- 3. children lists, subtree sizes, preorder ranges -------------------
  std::vector<uint32_t> child_count(n, 0);
  ex.For(0, visited_count, [&](size_t i) {
    NodeId p = parent[order[i]];
    if (p != kInvalidNode) FetchAdd32(&child_count[p], 1);
  });
  std::vector<EdgeIndex> child_off(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    child_off[v + 1] = child_off[v] + child_count[v];
  }
  std::vector<NodeId> child(child_off[n]);
  {
    std::vector<uint32_t> cursor(n, 0);
    ex.For(0, visited_count, [&](size_t i) {
      NodeId v = order[i];
      NodeId p = parent[v];
      if (p != kInvalidNode) child[child_off[p] + FetchAdd32(&cursor[p], 1)] = v;
    });
  }
  // Sort each node's children ascending so the preorder assignment below is
  // a pure function of the forest, not of scatter interleaving.
  ex.For(0, n, [&](size_t v) {
    if (child_count[v] > 1) {
      std::sort(child.begin() + child_off[v],
                child.begin() + child_off[v] + child_count[v]);
    }
  });

  // Subtree sizes bottom-up, one level at a time (children are always one
  // level deeper, so their sizes are final when the parent's level runs).
  std::vector<uint32_t> sub(n, 0);
  for (size_t l = levels.size(); l-- > 0;) {
    ex.For(levels[l].first, levels[l].second, [&](size_t i) {
      NodeId v = order[i];
      uint32_t s = 1;
      for (EdgeIndex c = child_off[v]; c < child_off[v + 1]; ++c) {
        s += sub[child[c]];
      }
      sub[v] = s;
    });
  }

  // Preorder numbers top-down: each tree occupies a contiguous block in
  // ascending root-id order; within a node, children take consecutive
  // sub-blocks in ascending id order. first/last are exactly the DFS
  // preorder entry time and the max preorder in the subtree.
  std::vector<uint32_t> first(n, 0);
  std::vector<uint32_t> last(n, 0);
  {
    uint32_t base = 0;
    for (NodeId r : roots) {
      first[r] = base;
      base += sub[r];
    }
  }
  for (const std::pair<size_t, size_t>& level : levels) {
    ex.For(level.first, level.second, [&](size_t i) {
      NodeId v = order[i];
      const uint32_t f = first[v];
      last[v] = f + sub[v] - 1;
      uint32_t next = f + 1;
      for (EdgeIndex c = child_off[v]; c < child_off[v + 1]; ++c) {
        first[child[c]] = next;
        next += sub[child[c]];
      }
    });
  }

  // --- 4. low/high preorder ranges -----------------------------------------
  // Local extrema over *all* incident edges: the parent's preorder is never
  // below first[parent] and a child's never leaves the subtree range, so
  // including tree arcs cannot trip the escape tests of rule (ii).
  std::vector<uint32_t> low(n, 0);
  std::vector<uint32_t> high(n, 0);
  ex.For(0, visited_count, [&](size_t i) {
    NodeId v = order[i];
    uint32_t lo = first[v];
    uint32_t hi = first[v];
    for (NodeId w : g.neighbors(v)) {
      const uint32_t f = first[w];
      lo = std::min(lo, f);
      hi = std::max(hi, f);
    }
    low[v] = lo;
    high[v] = hi;
  });
  for (size_t l = levels.size(); l-- > 0;) {
    ex.For(levels[l].first, levels[l].second, [&](size_t i) {
      NodeId v = order[i];
      for (EdgeIndex c = child_off[v]; c < child_off[v + 1]; ++c) {
        low[v] = std::min(low[v], low[child[c]]);
        high[v] = std::max(high[v], high[child[c]]);
      }
    });
  }

  // --- 5. skeleton union-find (Tarjan–Vishkin rules) -----------------------
  std::vector<NodeId> skel(n);
  ex.For(0, n, [&](size_t v) { skel[v] = static_cast<NodeId>(v); });
  // Rule (ii): a tree edge (parent[v], v) is in the same component as the
  // edge above the parent iff v's subtree escapes the parent's range.
  ex.For(0, visited_count, [&](size_t i) {
    NodeId v = order[i];
    NodeId p = parent[v];
    if (p == kInvalidNode) return;
    if (low[v] < first[p] || high[v] > last[p]) UfUnion(&skel, v, p);
  });
  // Rule (i): a cross edge (endpoints unrelated in the forest) merges its
  // endpoints' skeleton sets. Back edges are subsumed by the low/high
  // ranges feeding rule (ii).
  ex.For(0, n, [&](size_t ui) {
    NodeId u = static_cast<NodeId>(ui);
    for (NodeId w : g.neighbors(u)) {
      if (w <= u) continue;  // each undirected edge once
      if (parent[w] == u || parent[u] == w) continue;  // tree edge
      const bool w_in_u = first[u] <= first[w] && first[w] <= last[u];
      const bool u_in_w = first[w] <= first[u] && first[u] <= last[w];
      if (!w_in_u && !u_in_w) UfUnion(&skel, u, w);
    }
  });
  // Snapshot representatives so the read-only labeling sweep below never
  // races with path-halving writes.
  std::vector<NodeId> rep(n);
  ex.For(0, n, [&](size_t v) {
    rep[v] = UfFind(&skel, static_cast<NodeId>(v));
  });

  // --- 6. arc labels + canonical renumbering -------------------------------
  // A tree arc belongs to the component of its child endpoint; a back edge
  // to that of its descendant endpoint; a cross edge's endpoints share a
  // set (rule i), so either works.
  std::vector<EdgeIndex> min_arc(n, kNoArc);
  ex.For(0, n, [&](size_t ui) {
    NodeId u = static_cast<NodeId>(ui);
    EdgeIndex base = g.offset(u);
    auto nbr = g.neighbors(u);
    for (size_t i = 0; i < nbr.size(); ++i) {
      NodeId w = nbr[i];
      NodeId side;
      if (parent[w] == u) {
        side = w;
      } else if (parent[u] == w) {
        side = u;
      } else if (first[u] <= first[w] && first[w] <= last[u]) {
        side = w;  // w is a descendant of u
      } else {
        side = u;  // u is a descendant of w, or the edge is a cross edge
      }
      const NodeId r = rep[side];
      const EdgeIndex e = base + static_cast<EdgeIndex>(i);
      out.arc_component[e] = r;  // provisional: the skeleton representative
      FetchMinArc(&min_arc[r], e);
    }
  });
  // Canonical ids: ascending smallest-arc order (see biconnected.h). The
  // collect is ascending by representative and the sort key (min arc) is
  // unique per component, so the mapping is deterministic.
  std::vector<NodeId> reps =
      ex.CollectNodes(n, [&](NodeId v) { return min_arc[v] != kNoArc; });
  std::sort(reps.begin(), reps.end(),
            [&](NodeId a, NodeId b) { return min_arc[a] < min_arc[b]; });
  out.num_components = static_cast<uint32_t>(reps.size());
  std::vector<uint32_t> comp_of_rep(n, kInvalidComp);
  ex.For(0, reps.size(), [&](size_t i) {
    comp_of_rep[reps[i]] = static_cast<uint32_t>(i);
  });
  ex.For(0, arcs, [&](size_t e) {
    out.arc_component[e] = comp_of_rep[out.arc_component[e]];
  });

  // --- 7. derived tables (same contents as the serial tail) ----------------
  std::vector<uint32_t> comp_size(out.num_components, 0);
  auto for_distinct_comps = [&](NodeId v, std::vector<uint32_t>* scratch,
                                const auto& fn) {
    scratch->clear();
    EdgeIndex base = g.offset(v);
    for (NodeId i = 0; i < g.degree(v); ++i) {
      scratch->push_back(out.arc_component[base + i]);
    }
    std::sort(scratch->begin(), scratch->end());
    scratch->erase(std::unique(scratch->begin(), scratch->end()),
                   scratch->end());
    for (uint32_t c : *scratch) fn(c);
  };
  ex.Chunks(0, n, [&](uint32_t, size_t lo, size_t hi) {
    std::vector<uint32_t> distinct;
    for (size_t vi = lo; vi < hi; ++vi) {
      NodeId v = static_cast<NodeId>(vi);
      for_distinct_comps(v, &distinct,
                         [&](uint32_t c) { FetchAdd32(&comp_size[c], 1); });
      if (distinct.empty()) continue;  // isolated node
      node_component[v] = distinct.front();
      counts[v] = static_cast<uint32_t>(distinct.size());
      is_cutpoint[v] = distinct.size() > 1 ? 1 : 0;
    }
  });
  std::vector<uint64_t> begin(out.num_components + 1, 0);
  for (uint32_t c = 0; c < out.num_components; ++c) {
    begin[c + 1] = begin[c] + comp_size[c];
  }
  std::vector<NodeId> members(begin[out.num_components]);
  {
    std::vector<uint32_t> cursor(out.num_components, 0);
    ex.Chunks(0, n, [&](uint32_t, size_t lo, size_t hi) {
      std::vector<uint32_t> distinct;
      for (size_t vi = lo; vi < hi; ++vi) {
        NodeId v = static_cast<NodeId>(vi);
        for_distinct_comps(v, &distinct, [&](uint32_t c) {
          members[begin[c] + FetchAdd32(&cursor[c], 1)] = v;
        });
      }
    });
  }
  ex.For(0, out.num_components, [&](size_t c) {
    std::sort(members.begin() + static_cast<std::ptrdiff_t>(begin[c]),
              members.begin() + static_cast<std::ptrdiff_t>(begin[c + 1]));
  });
  out.is_cutpoint = ShareArray(std::move(is_cutpoint));
  out.component_nodes = ComponentMembers(ShareArray(std::move(begin)),
                                         ShareArray(std::move(members)));
  out.node_component = ShareArray(std::move(node_component));
  out.cutpoint_comp_count_ = ShareArray(std::move(counts));
  return out;
}

}  // namespace saphyra
