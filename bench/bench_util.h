#ifndef SAPHYRA_BENCH_BENCH_UTIL_H_
#define SAPHYRA_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bc/brandes.h"
#include "util/logging.h"
#include "graph/bfs.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "util/rng.h"
#include "util/timer.h"

namespace saphyra {
namespace bench {

/// The paper's corpora (Flickr, LiveJournal, Orkut from SNAP; USA-road from
/// DIMACS ch. 9) are not available offline, so each benchmark runs on a
/// laptop-scale surrogate with the same structural signature (see
/// docs/benchmarks.md, "Benchmark substitutions"):
///  * flickr-s     — social graph with a large leaf fraction (many
///                   zero-centrality nodes, like Flickr's 59% true zeros),
///  * livejournal-s— social graph, moderate leaf fraction,
///  * orkut-s      — dense social core, almost no zero-centrality nodes,
///  * usa-road-s   — long-diameter road grid rich in cutpoints.
/// Sizes are chosen so exact Brandes ground truth finishes in seconds.

/// \brief Social-network surrogate: Barabási–Albert core in which a
/// fraction of nodes attaches with a single edge (degree-1 leaves have
/// betweenness exactly 0, reproducing the true-zero mass of Fig. 6).
inline Graph SocialGraph(NodeId n, double leaf_fraction, NodeId m,
                         uint64_t seed) {
  NodeId core = static_cast<NodeId>(n * (1.0 - leaf_fraction));
  if (core < m + 2) core = m + 2;
  Graph base = BarabasiAlbert(core, m, seed);
  Rng rng(seed ^ 0x1EAFULL);
  GraphBuilder b;
  for (auto [u, v] : base.UndirectedEdges()) b.AddEdge(u, v);
  // Attach leaves preferentially (hubs attract followers).
  for (NodeId v = core; v < n; ++v) {
    NodeId host = static_cast<NodeId>(rng.UniformInt(core));
    // Bias toward low ids (older, higher-degree BA nodes).
    host = static_cast<NodeId>(rng.UniformInt(host + 1));
    b.AddEdge(v, host);
  }
  Graph g;
  Status st = b.Build(n, &g);
  SAPHYRA_CHECK(st.ok());
  return g;
}

struct BenchNetwork {
  std::string name;
  Graph graph;
  /// Coordinates (road networks only; empty otherwise).
  std::vector<float> x, y;
};

inline BenchNetwork MakeFlickrS() {
  return {"flickr-s", SocialGraph(10000, 0.55, 5, 101), {}, {}};
}
inline BenchNetwork MakeLiveJournalS() {
  return {"livejournal-s", SocialGraph(12000, 0.30, 4, 102), {}, {}};
}
inline BenchNetwork MakeOrkutS() {
  return {"orkut-s", SocialGraph(8000, 0.0, 12, 103), {}, {}};
}
inline BenchNetwork MakeUsaRoadS() {
  // keep_prob 0.70 fragments the grid into >1000 biconnected components
  // with a giant core of ~73% of the pair mass — matching real road
  // networks' dead-end- and bridge-rich block-cut structure while keeping a
  // Θ(width+height) diameter.
  RoadNetwork road = RoadGrid(110, 100, 0.70, 104);
  return {"usa-road-s", std::move(road.graph), std::move(road.x),
          std::move(road.y)};
}

inline std::vector<BenchNetwork> AllNetworks() {
  std::vector<BenchNetwork> nets;
  nets.push_back(MakeFlickrS());
  nets.push_back(MakeLiveJournalS());
  nets.push_back(MakeOrkutS());
  nets.push_back(MakeUsaRoadS());
  return nets;
}

/// \brief Exact Brandes ground truth with an on-disk cache, so the six
/// figure benches do not recompute it for the same surrogate network.
inline std::vector<double> GroundTruth(const BenchNetwork& net) {
  std::string cache = "saphyra_bench_gt_" + net.name + ".bin";
  const NodeId n = net.graph.num_nodes();
  {
    std::ifstream in(cache, std::ios::binary);
    if (in) {
      uint64_t stored_n = 0, stored_m = 0;
      in.read(reinterpret_cast<char*>(&stored_n), sizeof(stored_n));
      in.read(reinterpret_cast<char*>(&stored_m), sizeof(stored_m));
      if (in && stored_n == n && stored_m == net.graph.num_edges()) {
        std::vector<double> bc(n);
        in.read(reinterpret_cast<char*>(bc.data()),
                static_cast<std::streamsize>(n * sizeof(double)));
        if (in) return bc;
      }
    }
  }
  std::fprintf(stderr, "[bench] computing exact BC for %s (%u nodes)...\n",
               net.name.c_str(), n);
  Timer t;
  std::vector<double> bc = ParallelBrandesBetweenness(net.graph);
  std::fprintf(stderr, "[bench] exact BC done in %s\n",
               FormatDuration(t.ElapsedSeconds()).c_str());
  std::ofstream out(cache, std::ios::binary);
  if (out) {
    uint64_t nn = n, mm = net.graph.num_edges();
    out.write(reinterpret_cast<const char*>(&nn), sizeof(nn));
    out.write(reinterpret_cast<const char*>(&mm), sizeof(mm));
    out.write(reinterpret_cast<const char*>(bc.data()),
              static_cast<std::streamsize>(n * sizeof(double)));
  }
  return bc;
}

/// \brief k distinct random nodes.
inline std::vector<NodeId> RandomSubset(const Graph& g, size_t k,
                                        uint64_t seed) {
  Rng rng(seed);
  std::vector<NodeId> all(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) all[v] = v;
  for (size_t i = 0; i < k && i < all.size(); ++i) {
    size_t j = i + rng.UniformInt(all.size() - i);
    std::swap(all[i], all[j]);
  }
  all.resize(std::min(k, all.size()));
  return all;
}

/// \brief Values of `full` restricted to `targets`.
inline std::vector<double> Restrict(const std::vector<double>& full,
                                    const std::vector<NodeId>& targets) {
  std::vector<double> out(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) out[i] = full[targets[i]];
  return out;
}

/// \brief Simple CSV sink next to the binary: one file per bench.
class CsvWriter {
 public:
  CsvWriter(const std::string& path, const std::string& header) {
    out_.open(path);
    if (out_) out_ << header << "\n";
  }
  template <typename... Args>
  void Row(const char* fmt, Args... args) {
    if (!out_) return;
    char buf[512];
    std::snprintf(buf, sizeof(buf), fmt, args...);
    out_ << buf << "\n";
  }

 private:
  std::ofstream out_;
};

inline void PrintHeader(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

}  // namespace bench
}  // namespace saphyra

#endif  // SAPHYRA_BENCH_BENCH_UTIL_H_
